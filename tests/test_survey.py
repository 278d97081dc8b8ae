import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv.fileio import load_data, save_data
from dcinv.survey import Survey, build_dipole_dipole_survey, survey_from_rows


def brute_force_count(n_stations: int, max_receivers: int) -> int:
    """Independent enumeration: adjacent dipoles, receivers fully beyond the
    transmitter (no shared electrode), nearest first, capped."""
    n_dipoles = n_stations - 1
    total = 0
    for i in range(n_dipoles):
        available = max(0, n_dipoles - (i + 2))
        total += min(max_receivers, available)
    return total


def brute_force_rows(n_stations: int, max_receivers: int) -> list[list[int]]:
    """Independent enumeration of the (A, B, M, N) rows: transmitter by
    transmitter, nearest receiver first."""
    rows = []
    for a in range(n_stations - 1):
        n_rx = 0
        for m in range(a + 2, n_stations - 1):
            if n_rx == max_receivers:
                break
            rows.append([a, a + 1, m, m + 1])
            n_rx += 1
    return rows


class TestDipoleDipoleSurvey:
    def test_headline_count_348(self):
        """700 m line, 25 m spacing, 24 receivers: 348 = 3*24 + 24*23/2."""
        survey = build_dipole_dipole_survey(700.0, 25.0, 24)
        assert survey.n_data == 348
        assert survey.n_data == 3 * 24 + (23 + 1) * 23 // 2

    def test_electrodes_at_every_station(self):
        survey = build_dipole_dipole_survey(100.0, 25.0, 24)
        assert np.allclose(survey.electrodes, [0.0, 25.0, 50.0, 75.0, 100.0])
        # 5 stations leave room for 3 data: tx(0,1)->rx(2,3),(3,4); tx(1,2)->rx(3,4)
        assert survey.n_data == 3
        assert survey.source_rows().tolist() == [0, 2, 3]

    def test_smallest_survey(self):
        """4 stations is the minimum: one transmitter, one receiver."""
        survey = build_dipole_dipole_survey(75.0, 25.0, 1)
        assert survey.n_data == 1
        assert survey.abmn.tolist() == [[0, 1, 2, 3]]
        assert survey.source_rows().tolist() == [0, 1]

    def test_line_too_short(self):
        with pytest.raises(ValueError):
            build_dipole_dipole_survey(50.0, 25.0, 1)

    def test_length_not_multiple_of_spacing(self):
        with pytest.raises(ValueError):
            build_dipole_dipole_survey(90.0, 25.0, 4)

    def test_receiver_cap(self):
        survey = build_dipole_dipole_survey(200.0, 25.0, 2)
        assert np.diff(survey.source_rows()).max() == 2

    def test_no_shared_electrodes(self):
        survey = build_dipole_dipole_survey(300.0, 25.0, 24)
        for row in survey.abmn:
            assert len(set(row)) == 4

    def test_x0_offset(self):
        survey = build_dipole_dipole_survey(100.0, 25.0, 24, x0=-50.0)
        assert survey.electrodes[0] == -50.0
        assert survey.electrodes[-1] == 50.0

    @given(n_intervals=st.integers(1, 40), max_receivers=st.integers(1, 30),
           spacing=st.sampled_from([5.0, 10.0, 25.0]))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_enumeration(self, n_intervals, max_receivers, spacing):
        n_stations = n_intervals + 1
        expected = brute_force_count(n_stations, max_receivers)
        if expected == 0:
            with pytest.raises(ValueError):
                build_dipole_dipole_survey(n_intervals * spacing, spacing, max_receivers)
        else:
            survey = build_dipole_dipole_survey(n_intervals * spacing, spacing,
                                                max_receivers)
            assert survey.n_data == expected

    @given(n_stations=st.integers(4, 60), max_receivers=st.integers(1, 80),
           spacing=st.sampled_from([5.0, 10.0, 25.0]), x0=st.sampled_from([0.0, -100.0]))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_enumeration(self, n_stations, max_receivers, spacing, x0):
        survey = build_dipole_dipole_survey((n_stations - 1) * spacing, spacing,
                                            max_receivers, x0=x0)
        rows = brute_force_rows(n_stations, max_receivers)
        assert survey.abmn.tolist() == rows
        starts = [k for k, row in enumerate(rows) if k == 0 or row[0] != rows[k - 1][0]]
        assert survey.source_rows().tolist() == starts + [len(rows)]
        assert np.array_equal(survey.electrodes, x0 + spacing * np.arange(n_stations))

    @given(n_stations=st.integers(4, 30), max_receivers=st.integers(1, 30),
           x0=st.sampled_from([0.0, -37.5]))
    @settings(max_examples=30, deadline=None)
    def test_data_file_round_trip(self, tmp_path_factory, n_stations, max_receivers, x0):
        """save_data then load_data gives back the electrodes and the rows."""
        survey = build_dipole_dipole_survey((n_stations - 1) * 12.5, 12.5, max_receivers, x0=x0)
        path = tmp_path_factory.mktemp("data") / "data.txt"
        save_data(path, survey, np.ones(survey.n_data), np.ones(survey.n_data))
        back, _, _ = load_data(path)
        assert np.array_equal(back.electrodes, survey.electrodes)
        assert np.array_equal(back.abmn, survey.abmn)


class TestSurveyFromRows:
    def test_indices_number_sorted_positions(self):
        survey = survey_from_rows([[10.0, 0.0, 20.0, 30.0], [10.0, 0.0, 30.0, 40.0]])
        assert survey.electrodes.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert survey.abmn.tolist() == [[1, 0, 2, 3], [1, 0, 3, 4]]
        assert survey.source_rows().tolist() == [0, 2]

    def test_a_transmitter_that_returns_is_a_new_transmitter(self):
        """An (A, B) in two separate runs of rows is two transmitters, and a
        new A or a new B alone starts one."""
        survey = survey_from_rows([[0.0, 10.0, 20.0, 30.0], [0.0, 10.0, 30.0, 40.0],
                                   [0.0, 20.0, 30.0, 40.0], [10.0, 20.0, 30.0, 40.0],
                                   [0.0, 10.0, 20.0, 30.0]])
        assert survey.source_rows().tolist() == [0, 2, 3, 4, 5]

    def test_rows_must_have_four_columns(self):
        with pytest.raises(ValueError, match=r"abmn must be an \(n_data, 4\) integer array"):
            survey_from_rows(np.zeros((2, 3)))


class TestSurveyValidation:
    def test_source_same_electrode(self):
        with pytest.raises(ValueError, match="source electrodes A and B must differ"):
            Survey(electrodes=np.array([0.0, 1.0]), abmn=[[0, 0, 0, 1]])

    def test_receiver_index_out_of_range(self):
        with pytest.raises(ValueError, match="receiver electrode index out of range"):
            Survey(electrodes=np.array([0.0, 1.0]), abmn=[[0, 1, 1, 2]])

    @pytest.mark.parametrize("abmn, message", [
        ([[0, 1, 2, 2]], "receiver electrodes M and N must differ"),
        ([[0, 3, 1, 2]], "source electrode index out of range"),
        ([[-1, 1, 1, 2]], "source electrode index out of range"),
        ([[0, 1, -1, 2]], "receiver electrode index out of range"),
        ([[0, 1, 2]], r"abmn must be an \(n_data, 4\) integer array"),
        (np.zeros((0, 4), dtype=int), r"abmn must be an \(n_data, 4\) integer array"),
        ([[0.0, 1.0, 2.0, 2.5]], r"abmn must be an \(n_data, 4\) integer array"),
    ], ids=["m-is-n", "b-past-end", "a-negative", "m-negative", "three-columns", "no-rows",
            "floats"])
    def test_bad_rows_are_refused(self, abmn, message):
        with pytest.raises(ValueError, match=message):
            Survey(electrodes=np.array([0.0, 1.0, 2.0]), abmn=abmn)

    def test_arrays_are_read_only_copies(self):
        electrodes, abmn = np.arange(4.0), np.array([[0, 1, 2, 3]])
        survey = Survey(electrodes=electrodes, abmn=abmn)
        for array in (survey.electrodes, survey.abmn):
            with pytest.raises(ValueError):
                array[0] = 0
        electrodes[0] = abmn[0, 0] = 3  # the caller's arrays stay its own
        assert survey.electrodes[0] == 0.0 and survey.abmn[0, 0] == 0

