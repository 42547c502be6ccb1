"""A sweep scores each distinct row once and still counts every table exactly.

``sweep_operating_points`` reuses a row's record when the row's exact text
appeared in the previous table or earlier in the same table. Whatever the
tables look like, the sweep must give, table by table, what
``count_matrix(load_detections(path, ...))`` gives. The tables are drawn
from one candidate list, nested or not, with repeated rows, CRLF line ends,
byte-order marks, header-only tables and tables byte-identical to the one
before them or differing from it only in a byte-order mark; candidates
include rows that differ from another in one field only, and
``split_instances`` puts a ground truth's GTC verdict on a tie of its
float coverage summed in one table's order, which every exact verdict
must get right in any order. In the ``edited`` shape each table deletes,
inserts, repeats and moves a few rows of the previous one, so the sweep
steps the previous table's tally; its tie falls on a table that gained a
piece of the whole ground truth. A table byte-identical to the
previous one, and only such a table, shares that table's counts object.
Once a table reuses fewer than one row in ten, the rest of the sweep is
scored without lookups; the unit tests below pin where that happens, and
when a table is stepped.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_force_counts
from sedscore import Event, EventSet, SedScoreError, count_matrix, total_intersection
from sedscore.io import (
    _STEP_SHARE,
    EVENT_HEADER,
    load_dataset,
    load_detections,
    sweep_operating_points,
)
from sedscore.matching import _Tally

from conftest import default_params
from test_indexed_matching import FILES, _tie, as_dataset, split_instances, threshold

HEADER = "\t".join(EVENT_HEADER)


def _text(row) -> str:
    file_id, onset, offset, label = row
    return f"{file_id}\t{onset!r}\t{offset!r}\t{label}"


@st.composite
def near_copies(draw, rows, classes):
    """Copies of some rows with one field changed: file, offset or label."""
    copies = []
    for file_id, onset, offset, label in draw(st.lists(st.sampled_from(rows), max_size=4)):
        field = draw(st.sampled_from(("file", "offset", "label")))
        if field == "file":
            copies.append((draw(st.sampled_from(FILES)), onset, offset, label))
        elif field == "offset" and onset < (onset + offset) / 2:
            copies.append((file_id, onset, (onset + offset) / 2, label))
        else:
            copies.append((file_id, onset, offset, draw(st.sampled_from(classes))))
    return copies


def _inside(row, event) -> bool:
    """Whether ``row`` lies inside ``event``, in its file and with its label."""
    same = (row[0], row[3]) == (event.file_id, event.class_label)
    return same and event.onset <= row[1] and row[2] <= event.offset


@st.composite
def edits(draw, first, candidates, n_tables):
    """Tables that each edit the previous one, starting from ``first``.

    An edit deletes one occurrence of a row or every occurrence of it, and
    inserts a row once or twice, at drawn places: a candidate, or a row of
    the table, which then gains an occurrence. Now and then it also moves
    one row, the only edit that changes the order of the rows that stay.
    """
    tables = [first]
    for _ in range(n_tables - 1):
        rows = list(tables[-1])
        for _ in range(draw(st.integers(0, 2))):
            if rows:
                row = rows[draw(st.integers(0, len(rows) - 1))]
                if draw(st.booleans()):
                    rows.remove(row)
                else:
                    rows = [r for r in rows if r != row]
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.sampled_from(candidates + rows))
            for _ in range(draw(st.integers(1, 2))):
                rows.insert(draw(st.integers(0, len(rows))), row)
        if rows and draw(st.integers(0, 4)) == 0:
            row = rows.pop(draw(st.integers(0, len(rows) - 1)))
            rows.insert(draw(st.integers(0, len(rows))), row)
        tables.append(rows)
    return tables


@st.composite
def sweeps(draw):
    """A split instance and its sweep: ``(gt_rows, tables, layouts, whole, target, tie)``.

    ``tables`` maps a file name to the table's rows, in row order, and
    ``layouts`` maps it to the table's line end, whether the last row ends
    with one and whether the table opens with a byte-order mark. Some
    tables repeat the previous table byte for byte, and some repeat it
    but for a byte-order mark.
    ``tie`` names the table whose row order sets a GTC tie, or is None
    for the largest table. In the ``edited`` shape it is a table that
    gained a piece of the whole ground truth, often between two pieces
    that stay, so that a float sum in another order could flip the
    verdict.
    """
    gt_rows, det_rows, whole, _, target = draw(split_instances())
    classes = sorted({r[3] for r in gt_rows})
    candidates = det_rows + draw(near_copies(det_rows, classes)) if det_rows else []
    # about half the sweeps are edited ones, which are the ones mostly stepped
    others = st.sampled_from(("ascending", "descending", "not nested"))
    shape = draw(st.one_of(st.just("edited"), others))
    n_tables = draw(st.integers(1, 5))
    tie = None
    if not candidates:
        subsets = [[] for _ in range(n_tables)]
    elif shape == "not nested":
        row = st.sampled_from(candidates)
        subsets = [draw(st.lists(row, max_size=12)) for _ in range(n_tables)]
    elif shape == "edited":
        # op_01 gets back, at a drawn place, a row that op_00 held back:
        # for a GTC target, a piece of the whole ground truth
        pieces = [r for r in det_rows if _inside(r, whole)] if target == "gtc" else []
        back = draw(st.sampled_from(pieces or candidates))
        ranked = [r for r in draw(st.permutations(candidates)) if r != back]
        first = ranked[: draw(st.integers(len(ranked) // 2, len(ranked)))]
        second = list(first)
        second.insert(draw(st.integers(0, len(first))), back)
        subsets = [first, *draw(edits(second, candidates, n_tables))]
        tie = "op_01.tsv"
    else:
        ranked = draw(st.permutations(candidates))
        size = st.integers(0, len(ranked))
        sizes = sorted(draw(st.lists(size, min_size=n_tables, max_size=n_tables)))
        subsets = [ranked[:n] for n in sizes]
        if shape == "descending":
            subsets.reverse()
    tables, layouts = {}, {}
    for k, rows in enumerate(subsets):
        name = f"op_{k:02d}.tsv"
        if k and draw(st.integers(0, 3)) == 0:  # the previous table, byte for byte
            previous = f"op_{k - 1:02d}.tsv"
            tables[name], layouts[name] = tables[previous], layouts[previous]
            if draw(st.integers(0, 2)) == 0:  # but for a byte-order mark
                newline, line_end, bom = layouts[previous]
                layouts[name] = (newline, line_end, not bom)
            continue
        if shape != "edited":
            rows = list(draw(st.permutations(rows)))
            if rows and draw(st.booleans()):  # a repeated row
                rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
        if draw(st.integers(0, 5)) == 0:  # header only
            rows = []
        tables[name] = rows
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        layouts[name] = (newline, draw(st.booleans()), draw(st.integers(0, 3)) == 0)
    return gt_rows, tables, layouts, whole, target, tie


def _table_text(rows, newline="\n", line_end=True, bom=False) -> str:
    text = newline.join([HEADER, *rows])
    text = "\ufeff" + text if bom else text
    return text + newline if line_end else text


def _write(det_dir: Path, tables, layouts) -> None:
    for name, rows in tables.items():
        text = _table_text(map(_text, rows), *layouts[name])
        (det_dir / name).write_bytes(text.encode("utf-8"))


def _per_table(det_dir: Path, dataset, params):
    return {
        path.stem: count_matrix(load_detections(path, dataset), dataset, params)
        for path in sorted(det_dir.glob("*.tsv"))
    }


@settings(max_examples=450, deadline=None, derandomize=True)
@given(sweeps(), st.data())
def test_sweep_equals_count_matrix_of_each_table(sweep, data):
    gt_rows, tables, layouts, whole, target, tie = sweep
    dataset = as_dataset(gt_rows)
    ground_truth = dataset.ground_truth
    dtc, gtc, cttc = data.draw(threshold), data.draw(threshold), data.draw(threshold)
    tied = tables[tie] if tie else max(tables.values(), key=len)
    if target == "gtc" and tied:
        # GTC of the whole ground truth on a tie of its coverage by the
        # relevant pieces of one table, summed in that table's order
        label = whole.class_label
        dets = EventSet.from_events(Event(*r) for r in tied).for_class(label)
        gt_c = ground_truth.for_class(label)
        relevant = [d for d in dets if total_intersection(d, gt_c) / d.duration >= dtc]
        gtc = _tie(data, total_intersection(whole, relevant) / whole.duration)
    params = default_params(dtc_threshold=dtc, gtc_threshold=gtc, cttc_threshold=cttc)
    other = default_params(dtc_threshold=data.draw(threshold), cttc_threshold=data.draw(threshold))
    with tempfile.TemporaryDirectory() as tmp:
        det_dir = Path(tmp)
        _write(det_dir, tables, layouts)
        swept = sweep_operating_points(det_dir, dataset, params)
        expected = _per_table(det_dir, dataset, params)
        assert swept == expected
        assert list(swept) == list(expected)
        # a table byte-identical to the previous one, and only such a table,
        # shares its counts object
        matrices = list(swept.values())
        texts = [(det_dir / name).read_bytes() for name in tables]
        for k in range(1, len(texts)):
            assert (matrices[k] is matrices[k - 1]) == (texts[k] == texts[k - 1])
        # a second call on the same tables with other params: nothing carries over
        assert sweep_operating_points(det_dir, dataset, other) == _per_table(det_dir, dataset, other)
        for stem, counts in swept.items():
            # against the exact all-pairs oracle
            expected = brute_force_counts(gt_rows, tables[f"{stem}.tsv"], dtc, gtc, cttc)
            for c, exp in expected.items():
                assert (counts.n_tp[c], counts.n_fp[c]) == (exp["n_tp"], exp["n_fp"])
                assert dict(counts.cross_triggers[c]) == exp["ct"]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_DATASET = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
ROWS = ["a.wav\t1.5\t6.0\tspeech", "a.wav\t10.25\t13.5\talarm", "b.wav\t0\t2.5\tspeech"]
OTHER_ROWS = ["a.wav\t1.5\t6.5\tspeech", "b.wav\t4\t8\tdog"]
FAULTY = {
    "unknown label": "a.wav\t20\t21\tunicorn",
    "offset past the file end": "c.wav\t299\t301\tspeech",
    "bad number": "a.wav\t1.5\tsix\tspeech",
    "digit-group underscore": "a.wav\t1.5\t6_0\tspeech",
    "wrong field count": "a.wav\t1.5\t6.0\tspeech\t0.9",
    "empty line between rows": "",
}


def _outcome(call):
    try:
        return "ok", call()
    except SedScoreError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fault", sorted(FAULTY))
@pytest.mark.parametrize("where", [0, 1, 2])
def test_fault_among_memo_hits_is_reported_as_for_the_table_alone(tmp_path, fault, where):
    # op_1 repeats every row of op_0, with the faulty line before or
    # between them
    later = [*ROWS]
    later.insert(where, FAULTY[fault])
    (tmp_path / "op_0.tsv").write_text("\n".join([HEADER, *ROWS]) + "\n")
    (tmp_path / "op_1.tsv").write_text("\n".join([HEADER, *later]) + "\n")
    (tmp_path / "op_2.tsv").write_text("\n".join([HEADER, *ROWS]) + "\n")
    params = default_params()
    swept = _outcome(lambda: sweep_operating_points(tmp_path, GOLDEN_DATASET, params))
    alone = _outcome(lambda: load_detections(tmp_path / "op_1.tsv", GOLDEN_DATASET))
    assert alone[0] != "ok"
    assert swept == alone
    assert f"op_1.tsv:{where + 2}" in swept[1] or f"line {where + 2}" in swept[1]


@pytest.mark.parametrize("fault", sorted(FAULTY))
def test_fault_after_the_sweep_stops_reusing_records_is_reported_as_for_the_table_alone(
    tmp_path, fault
):
    # op_1 shares no row with op_0, so op_2 is read without lookups
    later = [*ROWS]
    later.insert(1, FAULTY[fault])
    (tmp_path / "op_0.tsv").write_text("\n".join([HEADER, *OTHER_ROWS]) + "\n")
    (tmp_path / "op_1.tsv").write_text("\n".join([HEADER, *ROWS]) + "\n")
    (tmp_path / "op_2.tsv").write_text("\n".join([HEADER, *later]) + "\n")
    params = default_params()
    swept = _outcome(lambda: sweep_operating_points(tmp_path, GOLDEN_DATASET, params))
    alone = _outcome(lambda: load_detections(tmp_path / "op_2.tsv", GOLDEN_DATASET))
    assert alone[0] != "ok"
    assert swept == alone


def _sweep_texts(tmp_path, monkeypatch, texts):
    """Sweep tables of the given texts; return the counts and what count_matrix returned."""
    for k, text in enumerate(texts):
        (tmp_path / f"op_{k}.tsv").write_bytes(text.encode("utf-8"))
    seen = []

    def count_matrix_seen(detections, dataset, params):
        seen.append(count_matrix(detections, dataset, params))
        return seen[-1]

    monkeypatch.setattr("sedscore.io.count_matrix", count_matrix_seen)
    params = default_params()
    swept = sweep_operating_points(tmp_path, GOLDEN_DATASET, params)
    assert swept == _per_table(tmp_path, GOLDEN_DATASET, params)
    return swept, seen


def _scored_without_lookups(tmp_path, monkeypatch, tables):
    """Write ``tables`` as a sweep and return the stems scored without lookups."""
    swept, seen = _sweep_texts(tmp_path, monkeypatch, map(_table_text, tables))
    return [stem for stem, counts in swept.items() if any(counts is c for c in seen)]


# Tables that put the sweep past the stop rule: op_1 reuses 1 row of 11.
FRESH = [f"a.wav\t{100 + k}\t{100.5 + k}\tspeech" for k in range(10)]
PHASES = {"lookups": [], "after the stop rule": [[ROWS[0]], [ROWS[0], *FRESH]]}


def test_lookups_stop_once_a_table_reuses_under_a_tenth_of_its_rows(tmp_path, monkeypatch):
    # op_2 holds op_1's rows in another order, so it is no byte-identical
    # repeat, and it and op_3 are scored without lookups
    tables = [*PHASES["after the stop rule"], [*FRESH, ROWS[0]], []]
    assert _scored_without_lookups(tmp_path, monkeypatch, tables) == ["op_2", "op_3"]


def test_lookups_go_on_while_a_table_reuses_a_tenth_of_its_rows(tmp_path, monkeypatch):
    # op_1 reuses 1 row of 10; the first table and one after an empty table decide nothing
    fresh = [f"a.wav\t{100 + k}\t{100.5 + k}\tspeech" for k in range(9)]
    tables = [OTHER_ROWS, [], ROWS, [ROWS[0], *fresh], fresh]
    assert _scored_without_lookups(tmp_path, monkeypatch, tables) == []


def _tallies(tmp_path, monkeypatch, tables):
    """Write ``tables`` as a sweep and return how each table was tallied: "recount" or "step"."""
    made = []

    class Tally(_Tally):
        def __init__(self, *args):
            super().__init__(*args)
            made.append("recount")

        def step(self, *args):
            super().step(*args)
            made.append("step")

    monkeypatch.setattr("sedscore.io._Tally", Tally)
    _sweep_texts(tmp_path, monkeypatch, map(_table_text, tables))
    return made


# Distinct rows, some of them over ground truth, that each table of the
# tests below keeps in this order.
MANY = ROWS + OTHER_ROWS + [f"a.wav\t{100 + k}\t{100.5 + k}\tspeech" for k in range(10)]


def test_a_table_whose_kept_rows_change_order_is_stepped(tmp_path, monkeypatch):
    # op_1 holds op_0's rows with the first two swapped, op_2 also moves
    # one row over ground truth to the end and drops another; each equals
    # count_matrix of its own table (_sweep_texts)
    swapped = [MANY[1], MANY[0], *MANY[2:]]
    moved = [*swapped[1:-1], swapped[0]]
    assert _tallies(tmp_path, monkeypatch, [MANY, swapped, moved]) == ["recount", "step", "step"]


def test_a_repeated_row_that_loses_an_occurrence_is_stepped(tmp_path, monkeypatch):
    # op_1 drops the second ROWS[0], op_2 the last row and one of two ROWS[1]
    first = [*MANY[:5], ROWS[0], *MANY[5:], ROWS[1]]
    second = [*MANY, ROWS[1]]
    third = MANY[:-1]
    assert _tallies(tmp_path, monkeypatch, [first, second, third]) == ["recount", "step", "step"]


def test_a_row_that_leaves_takes_out_an_equal_event_of_other_text(tmp_path, monkeypatch):
    # two texts of one detection, each covering 1.4 s of the 4.57 s speech
    # ground truth at 8.85 s: both pass GTC together, neither alone; each
    # stepped table drops one of them or brings it back
    twins = ["a.wav\t8.85\t10.25\tspeech", "a.wav\t8.850\t10.25\tspeech"]
    tables = [[*twins, *MANY], [twins[1], *MANY], [*twins, *MANY], [twins[0], *MANY]]
    assert _tallies(tmp_path, monkeypatch, tables) == ["recount", "step", "step", "step"]
    per_table = _per_table(tmp_path, GOLDEN_DATASET, default_params())
    n_tp = [counts.n_tp["speech"] for counts in per_table.values()]
    assert n_tp[0] - n_tp[1] == n_tp[2] - n_tp[3] == 1


def test_a_table_that_shrinks_while_a_row_comes_is_stepped(tmp_path, monkeypatch):
    # op_1 loses 3 rows, one of them over ground truth, and gains one over
    # another ground truth: both the rows that left and the one that came count
    tables = [MANY[1:], [MANY[0], *MANY[3:-1]]]
    assert _tallies(tmp_path, monkeypatch, tables) == ["recount", "step"]


def test_a_table_that_grows_while_a_row_leaves_is_stepped(tmp_path, monkeypatch):
    # op_1 gains 3 rows and loses one over ground truth
    tables = [MANY[:-3], MANY[1:]]
    assert _tallies(tmp_path, monkeypatch, tables) == ["recount", "step"]


def test_a_difference_beyond_the_step_share_is_tallied_from_scratch(tmp_path, monkeypatch):
    # op_1 loses 9 rows of 15, more than the share of its 6; op_2 loses 2
    # of 6, exactly the share of its 4
    assert _STEP_SHARE == 0.5
    tables = [MANY, MANY[:6], MANY[:4]]
    assert _tallies(tmp_path, monkeypatch, tables) == ["recount", "recount", "step"]


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_a_byte_identical_table_shares_the_previous_tables_counts(tmp_path, monkeypatch, phase):
    prefix = list(map(_table_text, PHASES[phase]))
    texts = [*prefix, *map(_table_text, [ROWS, ROWS, ROWS + OTHER_ROWS, ROWS + OTHER_ROWS])]
    swept, seen = _sweep_texts(tmp_path, monkeypatch, texts)
    a, a_again, b, b_again = list(swept.values())[len(prefix):]
    assert a_again is a and b_again is b
    assert b is not a
    # after the stop rule only the first table of each run reaches count_matrix
    assert len(seen) == (2 if prefix else 0)


# ROWS in other bytes than _table_text(ROWS); a byte-order mark leaves the decoded text alone
OTHER_BYTES = {
    "crlf": _table_text(ROWS, "\r\n"),
    "no-last-newline": _table_text(ROWS, "\n", False),
    "byte-order mark": _table_text(ROWS, bom=True),
}


@pytest.mark.parametrize("other", list(OTHER_BYTES))
@pytest.mark.parametrize("phase", sorted(PHASES))
def test_the_same_rows_in_other_bytes_are_scored_again(tmp_path, monkeypatch, phase, other):
    prefix = list(map(_table_text, PHASES[phase]))
    texts = [*prefix, _table_text(ROWS), OTHER_BYTES[other]]
    swept, seen = _sweep_texts(tmp_path, monkeypatch, texts)
    before, after = list(swept.values())[-2:]
    assert after == before
    assert after is not before
    assert len(seen) == (2 if prefix else 0)


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_malformed_header_after_a_byte_identical_table_names_its_table(tmp_path, phase):
    tables = [*PHASES[phase], ROWS, ROWS]
    bad = len(tables)
    for k, rows in enumerate(tables):
        (tmp_path / f"op_{k}.tsv").write_text(_table_text(rows))
    (tmp_path / f"op_{bad}.tsv").write_text("\n".join(["filename\tonset\tlabel", *ROWS]) + "\n")
    with pytest.raises(SedScoreError) as excinfo:
        sweep_operating_points(tmp_path, GOLDEN_DATASET, default_params())
    assert str(excinfo.value).startswith(f"{tmp_path / f'op_{bad}.tsv'}:1: expected header")


def test_malformed_header_in_a_later_table_names_that_table(tmp_path):
    (tmp_path / "op_0.tsv").write_text("\n".join([HEADER, *ROWS]) + "\n")
    (tmp_path / "op_1.tsv").write_text("\n".join(["filename\tonset\tlabel", *ROWS]) + "\n")
    with pytest.raises(SedScoreError) as excinfo:
        sweep_operating_points(tmp_path, GOLDEN_DATASET, default_params())
    assert str(excinfo.value).startswith(f"{tmp_path / 'op_1.tsv'}:1: expected header")


def test_repeated_rows_of_a_valid_sweep_count_as_in_each_table(tmp_path):
    # op_1 holds op_0's rows twice, in another order, with CRLF line ends
    (tmp_path / "op_0.tsv").write_text("\n".join([HEADER, *ROWS]) + "\n")
    (tmp_path / "op_1.tsv").write_bytes("\r\n".join([HEADER, *ROWS[::-1], *ROWS]).encode())
    params = default_params()
    swept = sweep_operating_points(tmp_path, GOLDEN_DATASET, params)
    assert swept == _per_table(tmp_path, GOLDEN_DATASET, params)
    assert sum(swept["op_1"].n_sys.values()) == 2 * sum(swept["op_0"].n_sys.values()) == 6


def test_a_leaving_row_leaves_its_covering_list_without_comparing_events(tmp_path, monkeypatch):
    # three relevant speech rows inside one ground truth (a.wav 42.86-48.65),
    # each with an overlap of its own; op_1 drops the middle one, so the
    # tally is stepped and the leaving entry is second in that ground
    # truth's covering list
    inside = ["a.wav\t43\t44\tspeech", "a.wav\t44.5\t46\tspeech", "a.wav\t46.5\t48.5\tspeech"]
    compared = []
    eq = Event.__eq__

    def counted(self, other):
        compared.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(Event, "__eq__", counted)
    tables = [inside, [inside[0], inside[2]]]
    assert _tallies(tmp_path, monkeypatch, tables) == ["recount", "step"]
    assert compared == []
