"""The one CSV dialect: the atomic writer and the checked record reader shared by every table."""

import pytest

from clevercatch import io_utils
from clevercatch.errors import ParseError
from clevercatch.evaluation import read_scores_csv
from clevercatch.ingest import parse_claims_csv, parse_labels
from clevercatch.io_utils import csv_records, write_csv
from clevercatch.rules import parse_rules
from clevercatch.vocab import Vocabulary

from conftest import traced_peak

CLAIMS_HEADER = (
    "npi,year,specialty,drug,total_claims,total_30day_fills,total_day_supply,total_cost,"
    "total_beneficiaries"
)

# reader, header line, one good record, the header text its error names, and a
# good record that holds a quoted line break
READERS = {
    "labels": (
        lambda path: parse_labels(path, Vocabulary(["100"])), "npi,label", "100,1", "npi,label",
        '"10\n1",0',  # an npi outside the vocabulary is skipped
    ),
    "rules": (
        lambda path: parse_rules(path, Vocabulary(["DrugA"])),
        "kind,drug_p,drug_q,weight", "unary,DrugA,,0.5", "kind,drug_p,drug_q,weight",
        'unary,DrugA,,"0.5\n"',
    ),
    "scores": (read_scores_csv, "npi,score,rank", "100,0.5,1", "npi,score,rank or npi,score",
               '100,"0.5\n",1'),
    "claims": (parse_claims_csv, CLAIMS_HEADER, "100,2019,gp,DrugA,1,2,3,4,5", CLAIMS_HEADER,
               '100,2019,"general\npractice",DrugA,1,2,3,4,5'),
}


@pytest.mark.parametrize(
    "case", ["wrong header", "wrong field count", "blank record first", "quoted line break first"]
)
@pytest.mark.parametrize("table", READERS)
def test_record_readers_share_one_error_contract(tmp_path, table, case):
    read, header, good, expected_header, broken = READERS[table]
    width = header.count(",") + 1
    path = tmp_path / f"{table}.csv"
    text, message = {
        "wrong header": (
            f"x{header}\n{good}\n", f"line 1: expected header {expected_header}"
        ),
        "wrong field count": (
            f"{header}\n{good}\n{good},9\n", f"line 3: expected {width} fields, got {width + 1}"
        ),
        # a blank line still counts in the line numbers
        "blank record first": (
            f"{header}\n\n{good.rsplit(',', 1)[0]}\n", f"line 3: expected {width} fields, got {width - 1}"
        ),
        # the faulty record starts on line 4, after a record over lines 2 and 3
        "quoted line break first": (
            f"{header}\n{broken}\n{good.rsplit(',', 1)[0]}\n",
            f"line 4: expected {width} fields, got {width - 1}",
        ),
    }[case]
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"{path}: {message}"


def test_write_csv_layout_and_records_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], (f"{i},{i * i}" for i in range(3)), comments=["# note"])
    assert path.read_bytes() == b"# note\na,b\n0,0\n1,1\n2,4\n"
    write_csv(path, ["a", "b"], ["x,1", "", "y,2"])
    assert list(csv_records(path, [["a", "b"]])) == [(2, ["x", "1"]), (4, ["y", "2"])]


@pytest.mark.parametrize("block", [io_utils.CSV_BLOCK_LINES, 1, 3])
@pytest.mark.parametrize("n_lines", [0, 1, 3, 7])
@pytest.mark.parametrize("comments", [[], ["# one", "# two"]])
def test_write_csv_bytes_equal_the_joined_table(tmp_path, monkeypatch, block, n_lines, comments):
    monkeypatch.setattr(io_utils, "CSV_BLOCK_LINES", block)
    lines = [f"{i},{i / 7!r}" for i in range(n_lines)]
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], iter(lines), comments=comments)
    assert path.read_bytes() == "\n".join([*comments, "a,b", *lines, ""]).encode("utf-8")


def test_write_csv_peak_memory_is_below_half_the_text(tmp_path):
    """The table streams to disk in blocks; it is never one string."""
    n_lines, line = 100_000, "1234567,0.12345678901234567,0.98765432109876543"
    text_bytes = n_lines * (len(line) + 1)  # about 4.8 MB
    path = tmp_path / "table.csv"
    peak = traced_peak(write_csv, path, ["npi", "x", "y"], (line for _ in range(n_lines)))
    assert path.stat().st_size == text_bytes + len("npi,x,y\n")
    assert peak < text_bytes / 2, f"peak {peak} B for {text_bytes} B of text"


def test_csv_records_accepts_any_of_its_headers(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a\r\n\r\n1\r\n", encoding="utf-8")
    assert list(csv_records(path, [["a", "b"], ["a"]])) == [(3, ["1"])]
