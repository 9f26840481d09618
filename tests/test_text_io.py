"""Text I/O: the series loader against the csv.reader row scan, and the
repr writers against per-value formatting.

The loader reads the text in up to three passes.  numpy's C reader parses
plain unquoted text; it declines quotes, a '#' after the start of a line,
a carriage return outside "\\r\\n", a line over the csv field size limit,
missing cells, no data row and any cell numpy refuses or reads as
non-finite.  csv.reader then splits the rows and numpy parses the column's
cells, which serves quoted and missing cells.  A row scan runs only to
report a fault, naming its line.  ``oracles.load_csv_rows`` is that row
scan on its own, so every value, label and error (type and message) must
agree, whichever pass read the text.
"""

import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymap import (
    EmbeddingParams,
    SeriesLoadError,
    cloud_from_points,
    delay_embed,
    load_csv,
    lorenz,
    series_from_text,
)
from delaymap.cli import _SYNTH_FLAGS, main
from delaymap.generators import GENERATORS, SETTINGS, generate
from delaymap.pipeline import repr_cells, write_cloud_csv
from oracles import load_csv_rows

SOURCES = ("path", "stringio", "stdin")


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the error itself is the result compared
        return "error", type(exc), str(exc)


def _open(text, kind, path):
    """The same text as a file path, an in-memory stream, or a stream
    like sys.stdin (universal newlines, translated).  A path is unlinked
    before it is written: a new file is written far faster than one that
    was just written is overwritten in place."""
    if kind == "path":
        path.unlink(missing_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return str(path)
    if kind == "stringio":
        return io.StringIO(text)
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def assert_loader_parity(text, kind, path, **kwargs):
    def new():
        s = load_csv(_open(text, kind, path), **kwargs)
        return [v.hex() for v in s.values.tolist()], s.label

    def old():
        values, label = load_csv_rows(_open(text, kind, path), **kwargs)
        return [float(v).hex() for v in values], label

    assert _outcome(new) == _outcome(old)


#: valid unquoted text: the numpy pass alone must load it
PLAIN_CASES = [
    ("# head\n1.0\n# note\n2.0\n3.5\n", {}),
    ("1\n\n2\n,,\n  \n3\n", {}),
    ("1.5\r\n2.5\r\n-3\r\n", {}),
    ("1.5\r2.5\r-3\r", {}),
    ("1.5\r2.5\n-3\r\n4", {}),
    ("1\n2\x0c\n\x0c3\n", {}),
    ("NA\n\n1\nNA\n2\n\n3\n", {}),
    ("NA\n\n1\nNA\n2\n\n3\n", {"missing_policy": "drop"}),
    ("  1.5 \n\t2\t\n +3\n1_0\n", {}),
    ("t,price\n0, 1.5\n1,NA\n2,2.5\n", {"column": "price"}),
    ("t,price\n# note\n,,\n0,1.5\n1,2.5\n", {"column": 1, "skip_header": True}),
    ("1;2\n3;4\n", {"column": 1, "delimiter": ";"}),
]

#: valid quoted text: csv.reader unquotes it, so the numpy pass loads it too
QUOTED_CASES = [
    ('x,"y"\n1,"2"\n3,4\n', {"column": "y"}),
    ('"1.5"\n"2.5"\n3\n', {}),
    ('"a,b",1\n"c",2\n', {"column": 1}),
    ('1\n"2\n"\n3\n', {}),
]

LOADER_CASES = PLAIN_CASES + [
    ("1\n,,\n2\n", {"column": 1}),
    ("1\x0c2\n3\n", {}),
    ("NA\n5\n", {}),
    ("t,price\n0,1.5\n1,2.5\n", {"column": "volume"}),
    ("a,b,c\n1,2,3\n4,5\n", {"column": 2}),
    ("1\n2\nbogus\n", {}),
    ("1\n2\ninf\n", {}),
    ("1\n2\n1e999\n", {}),
    ('"1.5"\n"2,5"\n3\n', {}),
    ('x,"y"\n1,"2"\n3,4\n', {"column": "y"}),
    ("", {}),
    ("# only a comment\n", {}),
    ("1\n2\n", {"column": -1}),
    ("1\n2\n", {"delimiter": ";;"}),
    ("1\n2\n", {"missing_policy": "interpolate"}),
    ("#" + "x" * 140_000 + "\n1\n2\n", {}),
    ("1\n2\r3\n4\n", {}),
    ('1\n"2\n"\n3\nbogus\n4\n', {}),
    # two faults: the row scan's (the \r in a stream) is the one reported
    ("a\n\n\n\r,,\n", {"column": "b"}),
    ("1\n2\r3\n", {"column": -1}),
] + QUOTED_CASES[1:] + [
    # where numpy's reader and the csv rules part ways
    ("1 #x\n2\n3\n", {}),
    ("1,#x\n2,3\n4,5\n", {"column": 0}),
    ("1,#x\n2,3\n4,5\n", {"column": 1}),
    ("1,2\n3," + "x" * 140_000 + "\n4,5\n", {"column": 0}),
    ('"a,b",1,2\n"c,d",3,4\n', {"column": 2}),
    ("1\n2\n", {"delimiter": "#"}),
    ("1\n2\n", {"delimiter": "\n"}),
    ("t,price\n", {"column": "price"}),
    ("1_0\n2\n3\n", {}),
    ("\u0663.\u0665\n2\n3\n", {}),
    ("1,2\n \t \n3,4\n", {"column": 1}),
    ("nan,1\n2,3\n4,5\n", {"column": 1}),
]


@pytest.mark.parametrize("kind", SOURCES)
@pytest.mark.parametrize("text, kwargs", LOADER_CASES)
def test_loader_matches_the_row_scan(tmp_path, text, kwargs, kind):
    assert_loader_parity(text, kind, tmp_path / "series.csv", **kwargs)


@pytest.mark.parametrize(
    "text, line",
    [("#" + "x" * 140_000 + "\n1\n2\n", 1), ("1\n2\r3\n4\n", 2)],
    ids=["line-over-the-csv-field-limit", "bare-carriage-return"],
)
def test_rows_csv_cannot_split_raise_a_load_error_naming_the_line(text, line):
    with pytest.raises(SeriesLoadError, match=f"^<stream>:{line}: "):
        series_from_text(text)


@pytest.mark.parametrize("text, kwargs", PLAIN_CASES + QUOTED_CASES)
def test_plain_text_never_reaches_the_row_scan(tmp_path, monkeypatch, text, kwargs):
    def scan(*args):
        raise AssertionError("row scan used on plain text")

    monkeypatch.setattr("delaymap.series._scan_cells", scan)
    path = tmp_path / "plain.csv"
    path.write_text(text, encoding="utf-8", newline="")
    load_csv(path, **kwargs)


def _synth_lorenz(path):
    assert main(["synth", "--kind", "lorenz", "-n", "2000", "--output", str(path)]) == 0
    assert path.read_text(encoding="utf-8").startswith("# delaymap synth:")


@pytest.mark.parametrize(
    "write, kwargs",
    [
        (_synth_lorenz, {}),
        (lambda path: path.write_bytes(b"1.5\r\n2.5\r\n-3\r\n"), {}),
        (lambda path: path.write_text("t,price\n0,1.5\n1,2.5\n2,-3\n"), {"column": "price"}),
        (lambda path: path.write_text("1;2\n3;4\n5;6\n"), {"column": 1, "delimiter": ";"}),
    ],
    ids=["synth-lorenz", "crlf", "named-column", "semicolon"],
)
def test_common_text_takes_the_numpy_pass(tmp_path, monkeypatch, write, kwargs):
    def refuse(*args):
        raise AssertionError("csv pass used on text numpy's reader can read")

    monkeypatch.setattr("delaymap.series._parse_column", refuse)
    monkeypatch.setattr("delaymap.series._scan_cells", refuse)
    path = tmp_path / "common.csv"
    write(path)
    values, _ = load_csv_rows(str(path), **kwargs)
    assert load_csv(path, **kwargs).values.tolist() == values


def test_long_text_takes_the_numpy_pass_a_slice_at_a_time(tmp_path, monkeypatch):
    # a header, CRLF line ends and far more text than one slice or the
    # csv field size limit; no line is long
    def refuse(*args):
        raise AssertionError("csv pass used on text numpy's reader can read")

    monkeypatch.setattr("delaymap.series._parse_column", refuse)
    monkeypatch.setattr("delaymap.series._scan_cells", refuse)
    values = lorenz(30000).values.tolist()
    path = tmp_path / "long.csv"
    path.write_bytes(
        ("# a comment\r\nt,x\r\n" + "".join(f"{t},{v!r}\r\n" for t, v in enumerate(values)))
        .encode("utf-8")
    )
    assert path.stat().st_size > 4 * 131072
    assert load_csv(path, column="x").values.tolist() == values


@pytest.mark.parametrize(
    "argv, code",
    [(["ami"], 3), (["entropy"], 3), (["dimension"], 3), (["pipeline", "--config"], 1)],
    ids=["series", "cloud", "scaling", "config"],
)
def test_a_path_that_is_not_utf8_names_the_bad_byte_by_its_file_offset(
    tmp_path, capsys, argv, code
):
    # the text layer decodes 8 KiB chunks; the error counts bytes from the
    # start of the file, not of the chunk.  Comment lines reach the bad byte
    # in every reader.
    path = tmp_path / "bad.csv"
    path.write_bytes(b"#00\n" * 5000 + b"\xff\n2\n")
    assert main(argv + [str(path)]) == code
    expected = f"cannot read {re.escape(str(path))}: .* position 20000: "
    assert re.search(expected, capsys.readouterr().err)


def test_a_path_is_held_about_once_while_it_loads(tmp_path):
    path = tmp_path / "lorenz.csv"
    assert main(["synth", "--kind", "lorenz", "-n", "80000", "--output", str(path)]) == 0
    tracemalloc.start()
    try:
        series = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 80000
    # the text, numpy's values and the series' copy; a str per line would
    # take about 4x the file on their own
    assert peak <= 2.5 * path.stat().st_size


@pytest.mark.parametrize("kind", SOURCES)
@pytest.mark.parametrize(
    "text, kwargs",
    [("price,t\n1.5,0\n2.5,1\n", {"column": "price"}), ("1.0\n2.0\n3.0\n", {"column": 0})],
    ids=["named-column", "index-column"],
)
def test_loader_drops_a_leading_byte_order_mark(tmp_path, text, kwargs, kind):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    path = tmp_path / "series.csv"
    plain = load_csv(_open(text, kind, path), **kwargs)
    marked = load_csv(_open("\ufeff" + text, kind, path), **kwargs)
    assert marked.values.tolist() == plain.values.tolist()
    assert marked.label == plain.label


def test_loader_leaves_a_stream_it_was_given_open():
    stream = io.StringIO("1.0\n2.0\n")
    load_csv(stream)
    assert not stream.closed


def _cli_output(command, body, kind, path, monkeypatch, capsys):
    """stdout of a successful `delaymap command` reading body from a file
    path or from stdin."""
    source = _open(body, kind, path)
    if kind == "stdin":
        monkeypatch.setattr("sys.stdin", source)
        source = "-"
    assert main([command, source]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", ["path", "stdin"])
def test_entropy_drops_a_leading_byte_order_mark(tmp_path, capsys, monkeypatch, kind):
    text = "0.1,0.2\n0.3,0.5\n0.7,0.1\n0.9,0.95\n"
    run = [tmp_path / "cloud.csv", monkeypatch, capsys]
    plain, marked = (_cli_output("entropy", body, kind, *run) for body in (text, "\ufeff" + text))
    assert marked == plain


@pytest.mark.parametrize("kind", ["path", "stdin"])
def test_dimension_drops_a_leading_byte_order_mark(tmp_path, capsys, monkeypatch, kind):
    text = "r,S\n0.5,1.0\n0.25,2.0\n0.125,3.0\n0.0625,4.0\n"
    run = [tmp_path / "scaling.csv", monkeypatch, capsys]
    plain, marked = (_cli_output("dimension", body, kind, *run) for body in (text, "\ufeff" + text))
    assert marked == plain


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["+3", "1_0", "-0.0", "0.0", "1e-05", "1E+16", ".5", "5."]),
)
_ODD = st.sampled_from([
    "", "NA", "x1", "nan", "inf", "-inf", "1e999", "NaN", "0x10", "1__0", "#7",
    '"2.5"', '"1,5"', '"a""b"', '"', "1.5\x0c", "\x0c2", "1\x85", " 2",
])
_PAD = st.sampled_from(["", "", "", " ", "  ", "\t"])
_NAMES = ("a", " b ", "price", "t")


@st.composite
def csv_documents(draw):
    """(text, delimiter, column): mostly numeric rows of one width, with
    some odd cells, short or long rows, blank, comment and header rows,
    and mixed line ends."""
    delim = draw(st.sampled_from([",", ",", ";", "\t"]))
    width = draw(st.integers(1, 3))
    value = st.integers(0, 24).flatmap(lambda k: _ODD if k == 0 else _NUMBERS)
    cell = st.tuples(_PAD, value, _PAD).map("".join)
    rows = []
    header = draw(st.booleans())
    if header:
        rows.append(delim.join(draw(st.lists(st.sampled_from(_NAMES), min_size=width, max_size=width))))
    other = st.sampled_from(["", delim * 2, "   ", "# note", "  # indented", "#", "\x0c"])
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rows.append(draw(other))
        else:
            size = width if kind > 1 else draw(st.integers(1, width + 1))
            rows.append(delim.join(draw(st.lists(cell, min_size=size, max_size=size))))
    ends = [draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])) for _ in rows]
    text = "".join(row + end for row, end in zip(rows, ends))
    if rows and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    if header and draw(st.integers(0, 3)):
        column = draw(st.sampled_from(_NAMES + ("zz",))).strip()
    else:
        column = draw(st.integers(0, width - 1 if draw(st.integers(0, 5)) else width))
    return text, delim, column


@settings(max_examples=500)
@given(
    doc=csv_documents(),
    skip_header=st.booleans(),
    missing_policy=st.sampled_from(["forward_fill", "drop"]),
    kind=st.sampled_from(SOURCES),
)
def test_loader_matches_the_row_scan_on_generated_text(
    tmp_path_factory, doc, skip_header, missing_policy, kind
):
    text, delim, column = doc
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    assert_loader_parity(
        text, kind, path, column=column, skip_header=skip_header,
        missing_policy=missing_policy, delimiter=delim,
    )


_MANTISSAS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.from_regex(r"[0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20}", fullmatch=True),
)
_EXPONENTS = st.one_of(
    st.just(""),
    st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 400).map(str))
    .map("".join),
)
_NUMBER_CELLS = st.tuples(
    _PAD, st.sampled_from(["", "", "+", "-"]), _MANTISSAS, _EXPONENTS, _PAD
).map("".join)


@settings(max_examples=500)
@given(cell=_NUMBER_CELLS)
def test_numpy_reads_each_cell_it_accepts_as_float_does(cell):
    # the numpy pass relies on numpy's C number parser matching float()
    try:
        (value,) = np.loadtxt([cell], dtype=np.float64, delimiter=",", comments="#", ndmin=1)
    except ValueError:
        return
    assert value.hex() == float(cell).hex()


def _cloud_text_by_value(cloud, delay, axes):
    head = (
        f"# delaymap embed: delay={delay} dimension={cloud.n} "
        f"count={len(cloud)} axes={','.join(str(a) for a in axes)}\n"
    )
    rows = cloud.points[:, list(axes)]
    return head + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def test_repr_cells_keeps_each_bit_pattern():
    values = np.array([[-0.0, 0.0], [1e-05, 1e16], [0.0, -0.0], [np.nan, 5e-324]])
    expected = [[repr(float(v)) for v in row] for row in values]
    assert repr_cells(values).tolist() == expected
    assert repr_cells(values[:, 0]).tolist() == [row[0] for row in expected]


def test_cloud_writer_is_byte_identical_to_per_value_repr():
    rng = np.random.default_rng(11)
    special = np.array([-0.0, 0.0, 1e-05, 1e16, 1.0, -2.5])
    pts = special[rng.integers(0, special.size, size=(5000, 3))]
    pts[::7] = rng.normal(size=(len(pts[::7]), 3))  # past one slab of rows
    cloud = cloud_from_points(pts)
    for axes in ((0, 1, 2), (2, 0)):
        out = io.StringIO()
        write_cloud_csv(out, cloud, 1, axes)
        assert out.getvalue() == _cloud_text_by_value(cloud, 1, axes)

    embedded = delay_embed(lorenz(6000), EmbeddingParams(17, 3))
    out = io.StringIO()
    write_cloud_csv(out, embedded, 17, (0, 1, 2))
    assert out.getvalue() == _cloud_text_by_value(embedded, 17, (0, 1, 2))


def test_cloud_writer_copies_no_column_of_the_whole_cloud(tmp_path):
    cloud = delay_embed(lorenz(80000), EmbeddingParams(17, 3))
    with open(tmp_path / "cloud.csv", "w", encoding="utf-8", newline="") as out:
        tracemalloc.start()
        try:
            write_cloud_csv(out, cloud, 17, (2, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one slab of rows and its text at a time; a copy of the picked axes
    # alone would be 1x the cloud
    assert peak < cloud.points.nbytes


@pytest.mark.parametrize("kind", GENERATORS)
def test_synth_output_is_byte_identical_to_per_value_repr(tmp_path, kind):
    # each kind with only its required settings, past one slab of rows
    required = {
        name: {int: 8, float: 0.5}[p.annotation]
        for name, p in SETTINGS[kind].items() if p.default is p.empty
    }
    flags = [f"{_SYNTH_FLAGS[name]}={value}" for name, value in required.items()]
    out = tmp_path / "synth.csv"
    assert main(["synth", "--kind", kind, "-n", "5000", *flags, "--output", str(out)]) == 0
    head, body = out.read_text(encoding="utf-8").split("\n", 1)
    assert head.startswith(f"# delaymap synth: kind={kind} n=5000")
    assert body == "".join(repr(float(v)) + "\n" for v in generate(kind, 5000, **required).values)
