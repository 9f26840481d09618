"""Text I/O: the series loader against the csv.reader row scan, and the
repr writers against per-value formatting.

The loader splits rows with csv.reader and parses the column in one numpy
pass; a row scan runs only to report a fault, naming its line.
``oracles.load_csv_rows`` is that row scan on its own, so every value,
label and error (type and message) must agree.
"""

import io

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
from delaymap.cli import main
from delaymap.generators import GeneratorSpec, generate
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
    like sys.stdin (universal newlines, translated)."""
    if kind == "path":
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
] + QUOTED_CASES[1:]


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


def _cloud_text_by_value(cloud, axes):
    p = cloud.params
    head = (
        f"# delaymap embed: delay={p.delay} dimension={p.dimension} "
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
        write_cloud_csv(out, cloud, axes)
        assert out.getvalue() == _cloud_text_by_value(cloud, axes)

    embedded = delay_embed(lorenz(6000), EmbeddingParams(17, 3))
    out = io.StringIO()
    write_cloud_csv(out, embedded, (0, 1, 2))
    assert out.getvalue() == _cloud_text_by_value(embedded, (0, 1, 2))


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["--kind", "lorenz", "-n", "9000"], GeneratorSpec("lorenz", 9000)),
        (["--kind", "white_noise", "-n", "5000", "--seed", "4"],
         GeneratorSpec("white_noise", 5000, seed=4)),
        (["--kind", "sine", "-n", "100", "--period", "8"],
         GeneratorSpec("sine", 100, {"period_samples": 8})),
    ],
)
def test_synth_output_is_byte_identical_to_per_value_repr(tmp_path, argv, spec):
    out = tmp_path / "synth.csv"
    assert main(["synth", *argv, "--output", str(out)]) == 0
    head, body = out.read_text(encoding="utf-8").split("\n", 1)
    assert head.startswith(f"# delaymap synth: kind={spec.kind} n={spec.n}")
    assert body == "".join(repr(float(v)) + "\n" for v in generate(spec).values)
