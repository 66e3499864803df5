"""Claims and label file parsing: validation, vocabulary binding."""

import csv
import io
import logging
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from clevercatch import ingest
from clevercatch.errors import ParseError, ValidationError
from clevercatch.ingest import LabelTable, parse_claims_csv, parse_labels
from clevercatch.vocab import Vocabulary

from conftest import traced_peak

CLAIMS_HEADER = (
    "npi,year,specialty,drug,total_claims,total_30day_fills,"
    "total_day_supply,total_cost,total_beneficiaries"
)


def write_claims(path, rows):
    lines = [CLAIMS_HEADER] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_claims_basic(tmp_path):
    path = tmp_path / "claims.csv"
    write_claims(
        path,
        [
            "100,2019,gp,DrugA,20,24,720,1000.50,12",
            "100,2019,gp,DrugB,80,96,2880,4000.00,48",
            "200,2020,gp,DrugA,5,6,180,250.25,3",
        ],
    )
    table = parse_claims_csv(path)
    assert table.n_records == 3
    assert table.prescribers.names == ("100", "200")
    assert table.drugs.names == ("DrugA", "DrugB")
    assert table.year.tolist() == [2019, 2019, 2020]
    assert table.metrics[0].tolist() == [20.0, 24.0, 720.0, 1000.50, 12.0]
    assert np.array_equal(table.npi_idx, [0, 0, 1])
    assert np.array_equal(table.drug_idx, [0, 1, 0])


def test_parse_claims_header_and_field_errors(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("npi,year\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        parse_claims_csv(bad_header)
    short_row = tmp_path / "short.csv"
    write_claims(short_row, ["100,2019,gp,DrugA,1,2"])
    with pytest.raises(ParseError, match="expected 9 fields"):
        parse_claims_csv(short_row)
    negative = tmp_path / "neg.csv"
    write_claims(negative, ["100,2019,gp,DrugA,-1,2,3,4,5"])
    with pytest.raises(ParseError, match="non-negative"):
        parse_claims_csv(negative)
    bad_year = tmp_path / "year.csv"
    write_claims(bad_year, ["100,20x9,gp,DrugA,1,2,3,4,5"])
    with pytest.raises(ParseError, match="malformed year"):
        parse_claims_csv(bad_year)


def test_parse_labels_and_unknown_npi_policy(tmp_path, caplog):
    path = tmp_path / "labels.csv"
    path.write_text("npi,label\n100,1\n200,0\n999,1\n", encoding="utf-8")
    vocab = Vocabulary(["100", "200"])
    with caplog.at_level("WARNING"):
        table = parse_labels(path, vocab)
    assert table.n_labeled == 2
    assert table.n_skipped == 1
    assert np.array_equal(table.idx, [0, 1])
    assert np.array_equal(table.labels, [1, 0])
    assert "skipped 1" in caplog.text


def test_parse_labels_validation(tmp_path):
    vocab = Vocabulary(["100"])
    bad_value = tmp_path / "bad.csv"
    bad_value.write_text("npi,label\n100,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="label must be 0 or 1"):
        parse_labels(bad_value, vocab)
    duplicate = tmp_path / "dup.csv"
    duplicate.write_text("npi,label\n100,1\n100,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate label"):
        parse_labels(duplicate, vocab)


def test_label_table_dense_and_restrict():
    table = LabelTable(np.array([0, 2, 4]), np.array([1, 0, 1]))
    y, mask = table.to_dense(6)
    assert y.tolist() == [1, 0, 0, 0, 1, 0]
    assert mask.tolist() == [True, False, True, False, True, False]
    sub = table.restrict(np.array([2, 4]))
    assert np.array_equal(sub.idx, [2, 4])
    assert np.array_equal(sub.labels, [0, 1])
    # the table's order wins over the order of the kept indices
    unordered = LabelTable(np.array([5, 1, 3, 8]), np.array([1, 0, 0, 1]), n_skipped=2)
    sub = unordered.restrict(np.array([8, 3, 7, 5]))
    assert sub.idx.tolist() == [5, 3, 8]
    assert sub.labels.tolist() == [1, 0, 1]
    assert sub.n_skipped == 2
    with pytest.raises(ValidationError):
        LabelTable(np.array([0, 1]), np.array([1]))


def test_vocabulary_rejects_duplicates_and_orders_by_first_seen(tmp_path):
    with pytest.raises(ValidationError):
        Vocabulary(["a", "b", "a"])
    path = tmp_path / "claims.csv"
    write_claims(
        path,
        [
            "x,2019,gp,DrugB,1,1,1,1,1",
            "y,2019,gp,DrugA,1,1,1,1,1",
            "x,2020,gp,DrugA,1,1,1,1,1",
        ],
    )
    table = parse_claims_csv(path)
    assert table.prescribers.names == ("x", "y")
    assert table.prescribers.index("y") == 1
    assert "x" in table.prescribers and "z" not in table.prescribers
    assert table.drugs.names == ("DrugB", "DrugA")


@contextmanager
def ingest_warnings():
    """Messages logged by the ingest logger while the block runs."""
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("clevercatch.ingest")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def parse_both(path):
    """(outcome, warnings) of the columnar parser and of the oracle on one file.

    An outcome is the parsed table or the ParseError text.
    """
    results = []
    for parse in (parse_claims_csv, oracles.parse_claims_csv):
        with ingest_warnings() as messages:
            try:
                outcome = parse(path)
            except ParseError as exc:
                outcome = str(exc)
        results.append((outcome, messages))
    return results


def assert_tables_identical(new, old):
    for name in ("npi_idx", "year", "drug_idx", "metrics"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert new.drugs.names == old.drugs.names
    assert new.prescribers.names == old.prescribers.names
    assert new.n_records == old.n_records


NUMBERS = ("0", "-0", "1", "7", "0.1", "2.5", "1e3", "3.0000000000000004", "12.75", " 4", "0.0")
DRUGS = ("DrugA", "DrugB", "Drug, extended release", 'Drug "X"', "Opioid Z")
FAULTS = ("", "-1", "nan", "inf", "abc", "1e400", "20x9")
# Hand-written records at the edge of what numpy's reader takes. Each one reads
# the same through both of the library's readers, or sends the file to the
# record-by-record one.
HAND_RECORDS = (
    '300,2019,gp, "DrugX",1,2,3,4,5',  # a space before an opening quote keeps the quotes
    '300,2019,gp,"Drug"X,1,2,3,4,5',  # text after a closing quote joins the field
    "300,2019,gp,DrugA,1_000,2,3,4,5",  # float() takes 1_000
    "300,２０１９,gp,DrugA,1,2,3,4,5",  # int() takes full-width digits
    '300,2019,"general\npractice",DrugA,1,2,3,4,5',  # a quoted line break
    '300,2019,gp,DrugA,1,2,3,4,"5\r\n"',
)
HAND_FAULTS = (
    '300,2019,gp, "Drug, X",1,2,3,4,5',  # a space before an opening quote: the comma splits
    "300,2019,gp,DrugA,1,2,3,4,5,",  # a trailing comma: 10 fields
)


@st.composite
def claims_files(draw, faulty: bool):
    """Random claims text: repeated cells, blank records, CRLF or LF, quoted names,
    and the hand-written records.

    With faulty set, a few fields may be replaced by empty, negative,
    non-finite or malformed text, a record may lose a field, or a hand-written
    faulty record may appear.
    """
    cell = st.tuples(
        st.sampled_from(("100", "200", "300", "400")),
        st.sampled_from(("2019", "2020", "2021")),
        st.sampled_from(DRUGS),
    )
    cells = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    index = st.integers(0, len(cells) - 1)
    order = draw(st.lists(index, min_size=0, max_size=25))
    terminator = draw(st.sampled_from(("\n", "\r\n")))
    hand = st.sampled_from(HAND_RECORDS + HAND_FAULTS if faulty else HAND_RECORDS)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=terminator)
    writer.writerow(oracles.CLAIMS_HEADER)
    for k in order:
        npi, year, drug = cells[k]
        row = [npi, year, "gp", drug, *draw(st.lists(st.sampled_from(NUMBERS), min_size=5, max_size=5))]
        if faulty and draw(st.integers(0, 9)) == 0:
            row[draw(st.sampled_from((0, 1, 3, 4, 5, 6, 7, 8)))] = draw(st.sampled_from(FAULTS))
        if faulty and draw(st.integers(0, 19)) == 0:
            row.pop()
        writer.writerow(row)
        if draw(st.integers(0, 5)) == 0:
            buffer.write(terminator)  # a blank record still counts toward line numbers
        if draw(st.integers(0, 9)) == 0:
            buffer.write(draw(hand) + terminator)
    return buffer.getvalue()


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# records per numpy call: one, a few, and the library's own chunk
CHUNK_ROWS = st.sampled_from((1, 2, 3, ingest._CHUNK_ROWS))


@settings(deadline=None, max_examples=150)
@given(text=claims_files(faulty=False), triple=st.booleans(), chunk_rows=CHUNK_ROWS)
def test_columnar_parser_matches_oracle_bitwise(tmp_path_factory, text, triple, chunk_rows):
    path = tmp_path_factory.mktemp("claims") / "claims.csv"
    if triple:  # every record three times: each cell sums three rows in file order
        header, _, body = text.partition("\n")
        text = header + "\n" + body * 3
    write_text(path, text)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        (new, new_log), (old, old_log) = parse_both(path)
    assert not isinstance(old, str)
    assert_tables_identical(new, old)
    assert new_log == old_log


@settings(deadline=None, max_examples=150)
@given(text=claims_files(faulty=True), chunk_rows=CHUNK_ROWS)
def test_columnar_parser_reports_the_oracles_first_error(tmp_path_factory, text, chunk_rows):
    path = tmp_path_factory.mktemp("claims") / "claims.csv"
    write_text(path, text)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        (new, new_log), (old, old_log) = parse_both(path)
    if isinstance(old, str):
        assert new == old
    else:
        assert_tables_identical(new, old)
        assert new_log == old_log


@pytest.mark.parametrize(
    "rows, message",
    [
        (["100,2019,gp,DrugA,1,2"], "expected 9 fields, got 6"),
        (["100,2019,gp,DrugA,1,2,3,4,5,6"], "expected 9 fields, got 10"),
        ([",2019,gp,DrugA,1,2,3,4,5"], "npi and drug must be non-empty"),
        (["100,2019,gp,,1,2,3,4,5"], "npi and drug must be non-empty"),
        (["100,20x9,gp,DrugA,1,2,3,4,5"], "malformed year '20x9'"),
        (["100,,gp,DrugA,1,2,3,4,5"], "malformed year ''"),
        (["100,2019,gp,DrugA,1,2,x3,4,5"], "malformed number 'x3' in column total_day_supply"),
        (["100,2019,gp,DrugA,1,2,3,,5"], "malformed number '' in column total_cost"),
        (["100,2019,gp,DrugA,-1,2,3,4,5"], "total_claims must be a finite non-negative number, got -1"),
        (["100,2019,gp,DrugA,1,2,3,4,-0.5"], "total_beneficiaries must be a finite non-negative"),
        (["100,2019,gp,DrugA,1,nan,3,4,5"], "total_30day_fills must be a finite non-negative number, got nan"),
        (["100,2019,gp,DrugA,1,2,3,inf,5"], "total_cost must be a finite non-negative number, got inf"),
        (["100,2019,gp,DrugA,1,2,1e400,4,5"], "got 1e400"),
        # the first faulty record wins, whichever kinds of fault the records have
        (["100,2019,gp,DrugA,1,2,3,4,5", "", "100,2019,gp,DrugA,-1,2,3,4,5", "100,20x9,gp,DrugA,1,2,3,4,5"],
         "line 4: total_claims must be"),
        (["100,2019,gp,DrugA,1,-2,x,4,5"], "total_30day_fills must be"),
        (["100,2019,gp,DrugA,1,x,-3,4,5"], "malformed number 'x'"),
        # an npi needing CSV quoting is checked after every record's fields
        (['"10,1",2019,gp,DrugA,1,2,3,4,5', "100,2019,gp,DrugA,-1,2,3,4,5"], "line 3: total_claims must be"),
    ],
)
def test_parse_errors_match_the_oracle(tmp_path, rows, message):
    path = tmp_path / "claims.csv"
    write_claims(path, rows)
    (new, _), (old, _) = parse_both(path)
    assert isinstance(old, str) and message in old
    assert new == old


@pytest.mark.parametrize("chunk_rows", [1, 2])
@pytest.mark.parametrize("record", HAND_RECORDS + HAND_FAULTS)
def test_hand_written_records_match_the_oracle(tmp_path, monkeypatch, record, chunk_rows):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "claims.csv"
    write_claims(path, ["100,2019,gp,DrugA,1,2,3,4,5", record, "200,2020,gp,DrugB,1,2,3,4,5"])
    (new, new_log), (old, old_log) = parse_both(path)
    if isinstance(old, str):
        assert old.startswith(f"{path}: line 3: expected 9 fields, got 10")
        assert new == old
    else:
        assert_tables_identical(new, old)
        assert new_log == old_log


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_quoted_line_breaks_stay_on_the_fast_path(tmp_path, monkeypatch, chunk_rows):
    # a record whose quoted field holds a line break spans two lines, so with a
    # chunk of one or two records a line-based split would cut through it
    def refuse(self, path, handle):
        raise AssertionError("the file went to the record-by-record reader")

    monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(ingest._Columns, "read_records", refuse)
    path = tmp_path / "claims.csv"
    record = '{0},2019,"general\r\npractice",Drug{0},1,2,3,4,"{0}\n"\r\n\r\n'
    records = (record.format(npi) for npi in range(100, 107))
    write_text(path, CLAIMS_HEADER + "\r\n" + "".join(records))
    new = parse_claims_csv(path)
    monkeypatch.undo()
    (_, _), (old, _) = parse_both(path)
    assert_tables_identical(new, old)
    assert new.metrics[:, 4].tolist() == list(range(100, 107))


@pytest.mark.parametrize("npi", ["10,1", 'N"7', "10\n1", "10\r1"])
def test_npi_that_needs_csv_quoting_is_rejected(tmp_path, npi):
    # features.csv and scores.csv write npis bare, so such an npi would split
    # their records and break the commands that read them
    path = tmp_path / "claims.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(oracles.CLAIMS_HEADER)
        writer.writerow(["100", "2019", "gp", "DrugA", 1, 2, 3, 4, 5])
        writer.writerow([npi, "2019", "gp", "DrugA", 1, 2, 3, 4, 5])
    (new, _), (old, _) = parse_both(path)
    assert new == old == f"{path}: npi {npi!r} holds a comma, a double quote or a line break"


@pytest.mark.parametrize("char", ["\n", "\r"])
def test_drug_name_holding_a_line_break_is_rejected(tmp_path, char):
    # csv.writer leaves a bare \r unquoted, so rules.csv would split such a name
    path = tmp_path / "claims.csv"
    drug = f"Drug{char}A"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(oracles.CLAIMS_HEADER)
        writer.writerow(["100", "2019", "gp", "DrugA", 1, 2, 3, 4, 5])
        writer.writerow(["100", "2019", "gp", drug, 1, 2, 3, 4, 5])
    (new, _), (old, _) = parse_both(path)
    assert new == old == f"{path}: drug name {drug!r} holds a line break"


def test_parse_header_error_matches_the_oracle(tmp_path):
    for text in ("", "npi,year\n", "npi,year,specialty,drug\n1,2,3,4\n"):
        path = tmp_path / "claims.csv"
        path.write_text(text, encoding="utf-8")
        (new, _), (old, _) = parse_both(path)
        assert isinstance(old, str) and "line 1: expected header" in old
        assert new == old


@pytest.mark.parametrize("where", ["header", "fast path", "record reader"])
def test_claims_that_are_not_utf8_are_a_parse_error(tmp_path, where):
    # a text handle decodes a block of bytes at a time, so a byte far into the file
    # fails inside numpy's reader, or inside the record reader once "1_000" sends it there
    rows = [f"{100 + i},2019,gp,Drug{i % 7},1,2,3,4,5" for i in range(2_000)]
    if where == "record reader":
        rows[0] = "100,2019,gp,Drug0,1_000,2,3,4,5"
    path = tmp_path / "claims.csv"
    write_claims(path, rows)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"npi", b"np\xff", 1) if where == "header" else data + b"100,2019,\xff\n")
    with pytest.raises(ParseError, match=f"^{path}: not UTF-8 text$"):
        parse_claims_csv(path)


def test_year_beyond_int64_is_malformed(tmp_path):
    path = tmp_path / "claims.csv"
    write_claims(path, ["100,99999999999999999999,gp,DrugA,1,2,3,4,5"])
    with pytest.raises(ParseError, match="line 2: malformed year '99999999999999999999'"):
        parse_claims_csv(path)


def write_distinct_claims(path, n_prescribers, n_drugs=25, n_years=2, copies=1):
    """A claims file with every (npi, year, drug) cell in copies rows, drugs shuffled per year."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n_prescribers):
        for year in range(2019, 2019 + n_years):
            for d in rng.choice(n_drugs, size=n_drugs, replace=False):
                values = rng.integers(1, 500, size=5)
                rows += [f"{1_000_000 + i},{year},gp,Drug{d:03d},{values[0]},{values[1]},"
                         f"{values[2]},{values[3]}.25,{values[4]}"] * copies
    write_claims(path, rows)


def test_parse_claims_peak_memory_per_row(tmp_path):
    """Ingest memory is linear in the rows at a known rate: at most 300 B per row."""
    path = tmp_path / "claims.csv"
    write_distinct_claims(path, 1_000)
    peak = traced_peak(parse_claims_csv, path)
    assert parse_claims_csv(path).n_records == 1_000 * 25 * 2 == 50_000
    assert peak / 50_000 <= 300, f"{peak / 50_000:.0f} B per row"


@pytest.mark.parametrize("copies", [1, 2])
def test_parse_claims_peak_memory_per_added_row(tmp_path, copies):
    """The kept columns take 64 B per file row, about 68 B per added row in all,
    whether or not cells repeat. Merging repeated cells on ingest, with np.unique
    index and inverse arrays, took about 142 B per added row at two rows a cell."""
    rows, peaks = [], []
    for n_prescribers in (400, 1_200):
        path = tmp_path / f"claims{n_prescribers}.csv"
        write_distinct_claims(path, n_prescribers, copies=copies)
        rows.append(n_prescribers * 25 * 2 * copies)
        peaks.append(traced_peak(parse_claims_csv, path))
    per_row = (peaks[1] - peaks[0]) / (rows[1] - rows[0])
    assert per_row <= 80, f"{per_row:.0f} B per added row"
