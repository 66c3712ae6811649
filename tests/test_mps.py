import dataclasses
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from nbsopt import GridDims, generate_synthetic, mps
from nbsopt.clustering import partition_instance, with_clusters
from nbsopt.model import CsrMatrix, build_compact_model, build_model
from nbsopt.mps import (
    MpsFormatError,
    export_interchange,
    highs_binding,
    iter_mps_text,
    read_mps,
)
from nbsopt.suite import desk_suite

from _helpers import cluster_demo_instance, make_instance, to_scipy


def _row_names(path) -> list[str]:
    """The constraint rows an MPS file's ROWS section names, in order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines[lines.index("ROWS") + 1 : lines.index("COLUMNS")]]
    return [name for code, name in rows if code != "N"]


@pytest.fixture
def small_model():
    inst = generate_synthetic(1, GridDims(3, 3), nbs_count=2, measure_count=1,
                              forbidden_fraction=0.4, pre_existing_fraction=0.1)
    return inst, build_model(inst)


class TestWriter:
    def test_one_by_one_reimports_with_expected_counts(self, tmp_path):
        inst = make_instance(np.array([[10.0]]))
        model = build_model(inst)
        path = tmp_path / "m.mps"
        export_interchange(model, path)
        data = read_mps(path)
        assert data.a.shape[0] == 12
        assert len(data.column_names) == 7

    def test_byte_deterministic(self, tmp_path, small_model):
        _, model = small_model
        p1, p2 = tmp_path / "a.mps", tmp_path / "b.mps"
        export_interchange(model, p1)
        export_interchange(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cluster_lambda_column_and_link_rows(self, tmp_path):
        inst = cluster_demo_instance()
        model = build_model(inst)
        path = tmp_path / "c.mps"
        export_interchange(model, path)
        data = read_mps(path)
        assert "lam_t0_q0" in data.column_names
        lam_col = data.column_names.index("lam_t0_q0")
        link_rows = [r for r, name in enumerate(_row_names(path)) if name.startswith("link_")]
        assert len(link_rows) == 5  # one row per cluster cell
        for r in link_rows:
            row = to_scipy(data.a)[[r]]
            entries = {data.column_names[c]: v for c, v in zip(row.indices, row.data)}
            assert data.sense[r] == "="
            assert data.rhs[r] == 0.0
            assert entries["lam_t0_q0"] == -1.0
            xs = [v for name, v in entries.items() if name.startswith("x_")]
            assert xs == [1.0]
        assert data.is_integer[lam_col]

    def test_round_trip_preserves_rows_semantics(self, tmp_path, small_model):
        inst, model = small_model
        path = tmp_path / "m.mps"
        export_interchange(model, path)
        data = read_mps(path)
        assert data.column_names == model.layout.column_names()
        assert _row_names(path) == [s for b in model.constraints for s in b.row_names()]
        np.testing.assert_array_equal(data.sense, model.sense)
        np.testing.assert_array_equal(to_scipy(data.a).toarray(), to_scipy(model.a).toarray())
        np.testing.assert_array_equal(data.rhs, model.rhs)
        np.testing.assert_array_equal(data.c, model.c)
        assert data.objective_constant == model.objective_constant
        np.testing.assert_array_equal(data.lower, model.lower)
        np.testing.assert_array_equal(data.upper, model.upper)
        np.testing.assert_array_equal(data.is_integer, model.is_integer)

    def test_objective_constant_encoded_in_rhs(self, small_model):
        _, model = small_model
        assert model.objective_constant != 0.0
        text = "".join(iter_mps_text(model))
        assert f" rhs obj {-model.objective_constant!r}" in text

    def test_a_column_in_no_row_is_named(self, small_model):
        # f_i1_j1 without its fairness entry and its cost: no line to write
        _, model = small_model
        column = model.layout.column_names().index("f_i1_j1")
        a = model.a
        keep = a.indices != column
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))[keep]
        c = model.c.copy()
        c[column] = 0.0
        bare = dataclasses.replace(model, c=c, a=CsrMatrix.from_rows(
            np.bincount(rows, minlength=a.shape[0]), a.indices[keep], a.data[keep], a.shape[1]))
        with pytest.raises(MpsFormatError, match="variable 'f_i1_j1' appears in no row"):
            "".join(iter_mps_text(bare))


def _reference_text(model) -> str:
    """The MPS text written line by line: one f-string per line, with `repr`
    of each value."""
    columns = model.layout.column_names()
    rows = [name for block in model.constraints for name in block.row_names()]
    code = {"<=": "L", ">=": "G", "=": "E"}
    lines = ["NAME nbsopt\n", "ROWS\n", " N obj\n"]
    lines += [f" {code[s]} {row}\n" for s, row in zip(model.sense.tolist(), rows)]
    lines.append("COLUMNS\n")
    a = to_scipy(model.a).tocsc()
    in_integer, marker = False, 0
    for j, column in enumerate(columns):
        if model.is_integer[j] != in_integer:
            in_integer = not in_integer
            lines.append(f" M{marker} 'MARKER' '{'INTORG' if in_integer else 'INTEND'}'\n")
            marker += 1
        if model.c[j] != 0.0:
            lines.append(f" {column} obj {float(model.c[j])!r}\n")
        for k in range(a.indptr[j], a.indptr[j + 1]):
            lines.append(f" {column} {rows[a.indices[k]]} {float(a.data[k])!r}\n")
    if in_integer:
        lines.append(f" M{marker} 'MARKER' 'INTEND'\n")
    lines.append("RHS\n")
    if model.objective_constant != 0.0:
        lines.append(f" rhs obj {-model.objective_constant!r}\n")
    lines += [f" rhs {row} {float(v)!r}\n" for row, v in zip(rows, model.rhs) if v != 0.0]
    lines.append("BOUNDS\n")
    for j, column in enumerate(columns):
        lower, upper = float(model.lower[j]), float(model.upper[j])
        if model.is_integer[j] and lower == 0.0 and upper == 1.0:
            lines.append(f" BV bnd {column}\n")
            continue
        if lower != 0.0:
            lines.append(f" LO bnd {column} {lower!r}\n")
        if math.isfinite(upper):
            lines.append(f" UP bnd {column} {upper!r}\n")
    lines.append("ENDATA\n")
    return "".join(lines)


def _assert_same_lines(text: str, expected: str) -> None:
    """`text == expected`, reported by the first differing line rather than
    by a diff of the whole text."""
    lines, want = text.splitlines(), expected.splitlines()
    first = next((k for k, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first + 1}: {lines[first]!r}, expected {want[first]!r}"
    assert len(lines) == len(want)
    assert text == expected


# Values whose text a writer can get wrong: a signed zero, a stored zero, a
# large and a subnormal value, and ones repr writes with many or few digits.
AWKWARD_VALUES = [-0.0, 0.0, 1e16, 5e-324, 1 / 3, -2.5]


class TestWriterOracle:
    def test_awkward_values_match_the_line_by_line_writer(self, small_model):
        _, model = small_model
        assert model.objective_constant != 0.0
        n = len(AWKWARD_VALUES)
        model.a.data[: 3 * n : 3] = AWKWARD_VALUES
        objective = np.flatnonzero(model.c)[:n]
        model.c[objective] = AWKWARD_VALUES[: len(objective)]
        model.rhs[:n] = AWKWARD_VALUES
        text = "".join(iter_mps_text(model))
        assert text == _reference_text(model)
        for value in AWKWARD_VALUES:
            assert f" {value!r}\n" in text

    def test_small_chunks_cut_at_columns(self, monkeypatch):
        # With 7-line chunks, each COLUMNS chunk (one yielded piece) holds
        # whole columns, and every case of the cut rule occurs: a column
        # longer than a chunk, a chunk of several columns, a chunk that
        # opens on an objective line, and markers between chunks. The fill
        # of the lines' rows and codes runs in chunks of whole rows cut by
        # the same rule: they tile the rows, the budget row, longer than a
        # chunk, is a chunk of its own, and some column's lines are filled
        # from more than one chunk.
        monkeypatch.setattr(mps, "CHUNK_LINES", 7)
        real_chunks, row_chunks = mps._chunks, []

        def spy(bounds, start, stop):
            for chunk in real_chunks(bounds, start, stop):
                if bounds is model.a.indptr:
                    row_chunks.append(chunk)
                yield chunk

        monkeypatch.setattr(mps, "_chunks", spy)
        paper = build_model(generate_synthetic(3, GridDims(12, 12), nbs_count=3, measure_count=2,
                                               forbidden_fraction=0.3, pre_existing_fraction=0.05))
        compact = build_compact_model(generate_synthetic(
            12, GridDims(8, 8), nbs_count=2, measure_count=4, forbidden_fraction=0.5,
            pre_existing_fraction=0.05))
        assert compact.guarded
        for model in (paper, compact):
            row_chunks.clear()
            pieces = list(iter_mps_text(model))
            a = model.a
            assert [r0 for r0, _ in row_chunks] == [0] + [r1 for _, r1 in row_chunks[:-1]]
            assert row_chunks[-1][1] == a.shape[0]
            tags = [b.tag for b in model.constraints]
            budget = sum(len(b.labels) for b in model.constraints[: tags.index("budget")])
            assert a.indptr[budget + 1] - a.indptr[budget] > 7
            assert (budget, budget + 1) in row_chunks
            chunks_of_column = np.zeros(a.shape[1], dtype=int)
            for r0, r1 in row_chunks:
                chunks_of_column[np.unique(a.indices[a.indptr[r0] : a.indptr[r1]])] += 1
            assert chunks_of_column.max() > 1
            chunks = pieces[pieces.index("COLUMNS\n") + 1 : pieces.index("RHS\n")]
            lines = [chunk.splitlines() for chunk in chunks if "'MARKER'" not in chunk]
            columns = [[line.split()[0] for line in chunk] for chunk in lines]
            assert len(lines) < len(chunks)
            assert any(len(chunk) > 7 and len(set(names)) == 1
                       for chunk, names in zip(lines, columns))
            assert any(len(set(names)) > 1 for names in columns)
            assert sum(chunk[0].split()[1] == "obj" for chunk in lines) > 1
            assert all(len(chunk) <= 7 or len(set(names)) == 1
                       for chunk, names in zip(lines, columns))
            assert all(a[-1] != b[0] for a, b in zip(columns, columns[1:]))
            _assert_same_lines("".join(pieces), _reference_text(model))

    def test_more_distinct_values_than_sixteen_bits_hold(self):
        # value codes wider than 16 bits: every coefficient its own value
        inst = generate_synthetic(7, GridDims(30, 30), nbs_count=4, measure_count=4,
                                  forbidden_fraction=0.55, pre_existing_fraction=0.05)
        model = build_model(inst)
        model.a.data[:] = np.random.default_rng(0).uniform(-1.0, 1.0, model.a.nnz)
        assert len(np.unique(model.a.data)) > 1 << 16
        _assert_same_lines("".join(iter_mps_text(model)), _reference_text(model))

    def test_a_guarded_compact_model(self):
        # the compact file has UP bounds, on zbar, and integer columns (the
        # guard binaries among them) on both sides of its continuous ones
        inst = generate_synthetic(12, GridDims(8, 8), nbs_count=2, measure_count=4,
                                  forbidden_fraction=0.5, pre_existing_fraction=0.05)
        model = build_compact_model(inst)
        assert model.guarded
        expected = _reference_text(model)
        assert "\n UP " in expected
        _assert_same_lines("".join(iter_mps_text(model)), expected)


# Byte-identical MPS output is a documented guarantee (docs/formats.md); these
# SHA-256 digests pin the exact bytes of each desk-suite instance's file and
# of one 30x30 instance with clustered urban parks.
DESK_DIGESTS = {
    1: "c6b5be268be4cf044778c3b1b4a93d75ecdc1f45b2ddc09e3131503b142f0995",
    2: "bd449cfc90a873a9c1054c494129a128974bcb9eb301200e424ed7daa9de0e93",
    3: "e695b0bfef012492ad1dbef770468a9a52a4ad57b455c2b0b17741bdf7441bd3",
    5: "a6f675ba3c09117639dd60f72c00ec057c1bf3086b6098895cd10c5549499990",
    8: "9fe30840883ecfed874495cde02ca917a3c1c79ceedad77fcf82e3fb885bf22a",
    10: "eaaefeb733c74e3f355315292b668ebaa27e7fc0d82aeeb0e528d679001439c4",
    11: "54634c11508d88072f43aea376dfd1455722ae5660fc4ed2d9e5edfe3e3bdb7f",
    13: "52b6193d5cd3efbe680f7dc908c905b0146e4a4d427da832f1399200a0a4f229",
    14: "760a71f53f67edfd4da71ba50e49f1caa42eb1e24fd62447b7d97400652229c1",
    15: "d0e6bdbc5e9a25945ea221f406910c680c38812c69192c4ed0ca8e93351e0240",
    16: "e34852280b337145571e396084660b132bc8607d7ac7bf8dc9ed63cbc8cd4b48",
    17: "c2a314c03e911169e3fde04c47bd5dbbdea8b6c60b1365541e48f24212df90cf",
    18: "5b1afb53eb9db6d96501e4c107b575d1ec5b054e42373e7f64428df567836de9",
    19: "0e1a8aeb2248d2c71a91ab2618f0264a14f16320b48f7eb226ae0747eaa912b5",
    20: "ce6fb1f4b7347441427d8bc827c18d35980fe777683e66d2333f0cd3606fd9b1",
    21: "fb56b266ead4600b6e98473d68094f9b44fbe7174e2d28ecfbe3c8e8448dd573",
    23: "545a9bd0394b2b694ab405282404a02fd5ee5f09a1a47f9184335c23e0cf32cd",
    24: "41678c6d41a7efccabe699d236066b608ec99c5c6a4f0bb07398248791483af9",
    25: "e7f0e3b0035678da9fbb9e0767832e8d3e20b3213db4545f4fb1bdb246c4006a",
    26: "6a8bcec3acf13af4a65b808db8b6c32af993537b3bb156a9476b1a8fe8cfba67",
}
GRID30_DIGEST = "50680572475110e429690f2c0731fa5a286137145cdddd5de40004184c876a94"


def _file_digest(inst, path) -> str:
    export_interchange(build_model(inst), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenBytes:
    def test_desk_suite(self, tmp_path):
        path = tmp_path / "m.mps"
        digests = {seed: _file_digest(inst, path) for seed, inst in desk_suite(20)}
        assert digests == DESK_DIGESTS

    def test_thirty_by_thirty_with_clusters(self, tmp_path):
        inst = generate_synthetic(7, GridDims(30, 30), nbs_count=4, measure_count=4,
                                  forbidden_fraction=0.55, pre_existing_fraction=0.05)
        inst = with_clusters(inst, partition_instance(inst, ["UP"]))
        assert _file_digest(inst, tmp_path / "m.mps") == GRID30_DIGEST


class TestScratchMemory:
    """Python-traced memory per matrix nonzero at 30x30 (seed 7), where the
    finished paper model holds about 16 bytes a nonzero. The build, its
    normalizers included, peaks near 30 bytes a nonzero and the export near
    22 over the model. The export bound leaves room for noise but not for a
    whole-matrix int64 array, such as a sort key or a gather through a sort,
    each of which adds 8 bytes a nonzero, nor for an int32 one, 4 bytes:
    the export traced 25.6 bytes a nonzero when it kept each entry's row and
    value code in the matrix's own order beside the sort. The build bound
    cannot see the stacking's saving, as tracing counts every `np.empty` in
    full."""

    @pytest.fixture(scope="class")
    def grid30(self):
        inst = generate_synthetic(7, GridDims(30, 30), nbs_count=4, measure_count=4,
                                  forbidden_fraction=0.55, pre_existing_fraction=0.05)
        return with_clusters(inst, partition_instance(inst, ["UP"]))

    @staticmethod
    def traced_peak(step) -> tuple[object, int]:
        """What `step()` returns, and the peak of the memory traced during it."""
        tracemalloc.start()
        try:
            return step(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_peak(self, grid30):
        model, peak = self.traced_peak(lambda: build_model(grid30))
        per_nonzero = peak / model.a.nnz
        assert per_nonzero <= 33.5

    def test_export_peak(self, tmp_path, grid30):
        model = build_model(grid30)
        _, peak = self.traced_peak(lambda: export_interchange(model, tmp_path / "m.mps"))
        per_nonzero = peak / model.a.nnz
        assert per_nonzero <= 24.0


def _read(tmp_path, text: str):
    path = tmp_path / "t.mps"
    path.write_text(text, encoding="utf-8")
    return read_mps(path)


# What read_mps and the solver_cli adapter use of scipy's bundled HiGHS
# binding, a private API.
BINDING_MODULE = "scipy.optimize._highspy._core"
BINDING_NAMES = ["_Highs", "HighsLp", "HighsInfo", "HighsSolution", "HighsModelStatus",
                 "HighsStatus", "HighsVarType", "MatrixFormat", "ObjSense", "kHighsInf"]
BINDING_MEMBERS = {
    "_Highs": ["setOptionValue", "readModel", "getLp", "passModel", "run", "getModelStatus",
               "getInfo", "getSolution", "modelStatusToString", "solutionStatusToString"],
    "HighsLp": ["a_matrix_", "num_row_", "num_col_", "row_lower_", "row_upper_",
                "row_names_", "col_cost_", "offset_", "col_lower_", "col_upper_",
                "col_names_", "integrality_", "sense_"],
    "HighsLp.a_matrix_": ["value_", "index_", "start_"],
    "HighsInfo": ["objective_function_value", "mip_dual_bound", "mip_node_count", "mip_gap",
                  "primal_dual_integral", "primal_solution_status"],
    "HighsSolution": ["col_value"],
    "HighsModelStatus": ["kOptimal", "kTimeLimit", "kIterationLimit", "kInfeasible",
                         "kUnbounded", "kUnboundedOrInfeasible"],
    "HighsStatus": ["kOk", "kError"],
    "HighsVarType": ["kContinuous", "kInteger"],
    "MatrixFormat": ["kRowwise"],
    "ObjSense": ["kMinimize"],
}


class TestReader:
    def test_binding_has_every_member_read_mps_uses(self):
        core = highs_binding()
        missing = [name for name in BINDING_NAMES if not hasattr(core, name)]
        assert missing == [], f"{BINDING_MODULE} lacks: {missing}"
        lp = core.HighsLp()
        owners = {"_Highs": core._Highs(), "HighsLp": lp,
                  "HighsLp.a_matrix_": getattr(lp, "a_matrix_", None),
                  "HighsInfo": core.HighsInfo, "HighsSolution": core.HighsSolution,
                  "HighsModelStatus": core.HighsModelStatus, "HighsStatus": core.HighsStatus,
                  "HighsVarType": core.HighsVarType, "MatrixFormat": core.MatrixFormat,
                  "ObjSense": core.ObjSense}
        missing = [f"{owner}.{name}" for owner, names in BINDING_MEMBERS.items()
                   for name in names if not hasattr(owners[owner], name)]
        assert missing == [], f"{BINDING_MODULE} lacks: {missing}"
        # read_mps passes column bounds through, so HiGHS's infinity must be IEEE's
        assert core.kHighsInf == math.inf

    def test_missing_binding_file_named(self, tmp_path, monkeypatch):
        import scipy

        highs_binding()
        monkeypatch.delitem(sys.modules, BINDING_MODULE)
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        with pytest.raises(ImportError, match="optimize/_highspy"):
            highs_binding()
        assert BINDING_MODULE not in sys.modules

    def test_ranges_rejected(self, tmp_path):
        text = (
            "NAME t\nROWS\n N obj\n L c1\nCOLUMNS\n x obj 1.0 c1 1.0\n"
            "RHS\n rhs c1 4.0\nRANGES\n rng c1 2.0\nENDATA\n"
        )
        with pytest.raises(MpsFormatError, match="'c1' is ranged"):
            _read(tmp_path, text)

    def test_unknown_row_reference_rejected(self, tmp_path):
        text = "NAME t\nROWS\n N obj\nCOLUMNS\n x nosuch 1.0\nENDATA\n"
        with pytest.raises(MpsFormatError, match="kError"):
            _read(tmp_path, text)

    def test_missing_objective_rejected(self, tmp_path):
        text = "NAME t\nROWS\n L c1\nENDATA\n"
        with pytest.raises(MpsFormatError, match="kWarning"):
            _read(tmp_path, text)

    def test_truncated_file_rejected(self, tmp_path):
        text = "NAME t\nROWS\n N obj\n L c1\nCOLUMNS\n x obj 1.0 c1 2.0\nRHS\n rhs c1 4.0\n"
        with pytest.raises(MpsFormatError, match="kError"):
            _read(tmp_path, text)

    @pytest.mark.parametrize("head, tail, match", [
        ("OBJSENSE\n MAX\n", "", "minimization"),
        ("", "BOUNDS\n SC bnd x 3.0\n", "semi-continuous"),
    ], ids=["maximize", "semi-continuous"])
    def test_problem_outside_mip_problem_rejected(self, tmp_path, head, tail, match):
        body = "ROWS\n N obj\n L c1\nCOLUMNS\n x obj 1.0 c1 2.0\nRHS\n rhs c1 4.0\n"
        with pytest.raises(MpsFormatError, match=match):
            _read(tmp_path, f"NAME t\n{head}{body}{tail}ENDATA\n")

    def test_accepts_two_pairs_per_line_and_comments(self, tmp_path):
        text = (
            "* a comment\n"
            "NAME t\n"
            "ROWS\n"
            " N obj\n"
            " L c1\n"
            " G c2\n"
            "COLUMNS\n"
            " x obj 1.0 c1 2.0\n"
            " x c2 3.0\n"
            "RHS\n"
            " rhs c1 4.0 c2 1.0\n"
            "BOUNDS\n"
            " UP bnd x 9.0\n"
            "ENDATA\n"
        )
        data = _read(tmp_path, text)
        assert data.a.shape[0] == 2 and len(data.column_names) == 1
        assert data.c.tolist() == [1.0]
        assert data.sense.tolist() == ["<=", ">="]
        assert data.rhs.tolist() == [4.0, 1.0]
        assert to_scipy(data.a).toarray().tolist() == [[2.0], [3.0]]
        assert data.upper[0] == 9.0

    def test_a_matrix_without_entries(self, tmp_path):
        text = ("NAME t\nROWS\n N obj\n L c1\nCOLUMNS\n x obj 1.0\nRHS\n rhs c1 4.0\n"
                "BOUNDS\n UP bnd x 9.0\nENDATA\n")
        data = _read(tmp_path, text)
        assert data.a.shape == (1, 1) and data.a.nnz == 0
        assert data.a.indptr.tolist() == [0, 0]
