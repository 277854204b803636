"""results.write_csv against csv.writer, the writer whose bytes it keeps
but for a field holding a carriage return, which it quotes."""

import csv
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbench import results
from augbench.corpus import LabeledExample, load_dataset

# Field text from pieces that each matter to quoting, or any text.
_field = st.one_of(
    st.lists(st.sampled_from(
        ["a", "b c", ",", '"', "\r", "\n", "\r\n", "\u2028", "\0", '""', ""]),
        max_size=4).map("".join),
    st.text(max_size=6),
)
_plain_field = st.text(
    st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
    max_size=5)
_plain_row = st.lists(_plain_field, min_size=2, max_size=3)
_short_row = st.lists(_plain_field, max_size=1)  # csv.writer quotes [""]
_any_row = st.lists(_field, max_size=3)
_comma_row = st.tuples(_field, _field).map(lambda r: [r[0] + ",", r[1]])
# A plain row but for one character that needs quoting in one field.
_marked_row = st.tuples(
    _plain_row, st.sampled_from([",", '"', "\r", "\n", "\r\n"]),
).map(lambda t: [*t[0][:-1], t[0][-1] + t[1]])
_KINDS = [_plain_row, st.one_of(_plain_row, _short_row),
          st.one_of(_plain_row, _marked_row), _any_row, _comma_row]


@st.composite
def _csv_rows(draw):
    """Runs of four rows that are all plain, plain but for short or marked
    rows, mixed, or all quoted, so that each kind of block occurs when
    write_csv's block holds four rows."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=6)):
        rows += draw(st.lists(kind, min_size=4, max_size=4))
    return rows + draw(st.lists(_any_row, max_size=3))


def _written(write, header, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(path, header, rows)
        with open(path, "rb") as fh:
            return fh.read()


def _oracle_field(text):
    """A field of a row of two or more as csv.writer writes it, but quoted
    whenever it holds "\r", which csv.writer (Python 3.11) leaves bare."""
    if "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    if not text:
        return ""  # csv.writer quotes an empty field only when it is alone
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text])
    return line.getvalue()[:-1]


def _csv_writer(path, header, rows):
    """csv.writer's bytes, except that a field holding "\r" is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in [header, *rows]:
            fh.write(('""' if list(row) == [""] else ",".join(map(_oracle_field, row)))
                     + "\n")


@pytest.mark.parametrize("block", [results._BLOCK, 4])
@given(header=_any_row, rows=_csv_rows())
@settings(max_examples=150, deadline=None)
def test_write_csv_writes_the_bytes_of_csv_writer(block, header, rows):
    with mock.patch.object(results, "_BLOCK", block):
        assert (_written(results.write_csv, header, rows)
                == _written(_csv_writer, header, rows))



def test_a_row_to_quote_after_the_first_rows_of_a_block():
    rows = [["oi", "a"]] * 100 + [["bom, dia", "b"]] + [["tchau", "c"]] * 10
    assert (_written(results.write_csv, ["text", "label"], rows)
            == _written(_csv_writer, ["text", "label"], rows))


def test_a_field_holding_a_carriage_return_is_quoted():
    rows = [["oi", "a"], ["bom\rdia", "b"], ['diz "\r"', "c"], ["x,y", "d"]]
    assert _written(results.write_csv, ["text", "label"], rows) == (
        b'text,label\noi,a\n"bom\rdia",b\n"diz ""\r""",c\n"x,y",d\n')


# Text and labels that load_dataset keeps as they are: non-empty, with no
# whitespace at either end, of any other character.
_kept = st.text(st.one_of(st.sampled_from(',"\r\n'),
                          st.characters(blacklist_categories=("Cs",))),
                min_size=1, max_size=8).filter(lambda t: t == t.strip() and t)


@given(st.lists(st.tuples(_kept, _kept), min_size=1, max_size=12),
       st.sampled_from([results._BLOCK, 3]))
@settings(max_examples=200, deadline=None)
def test_load_dataset_reads_back_what_write_csv_wrote(rows, block):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(results, "_BLOCK", block):
        path = os.path.join(tmp, "out.csv")
        results.write_csv(path, ["text", "label"], rows)
        assert load_dataset(path).examples == tuple(
            LabeledExample(text, label) for text, label in rows)
