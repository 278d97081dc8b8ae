import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv.survey import Survey, build_dipole_dipole_survey


def brute_force_count(n_stations: int, max_receivers: int) -> int:
    """Independent enumeration: adjacent dipoles, receivers fully beyond the
    transmitter (no shared electrode), nearest first, capped."""
    n_dipoles = n_stations - 1
    total = 0
    for i in range(n_dipoles):
        available = max(0, n_dipoles - (i + 2))
        total += min(max_receivers, available)
    return total


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
        assert survey.n_sources == 2

    def test_smallest_survey(self):
        """4 stations is the minimum: one transmitter, one receiver."""
        survey = build_dipole_dipole_survey(75.0, 25.0, 1)
        assert survey.n_data == 1
        assert survey.sources == ((0, 1),)
        assert survey.receivers == (((2, 3),),)

    def test_line_too_short(self):
        with pytest.raises(ValueError):
            build_dipole_dipole_survey(50.0, 25.0, 1)

    def test_length_not_multiple_of_spacing(self):
        with pytest.raises(ValueError):
            build_dipole_dipole_survey(90.0, 25.0, 4)

    def test_receiver_cap(self):
        survey = build_dipole_dipole_survey(200.0, 25.0, 2)
        assert all(len(rx) <= 2 for rx in survey.receivers)

    def test_no_shared_electrodes(self):
        survey = build_dipole_dipole_survey(300.0, 25.0, 24)
        for (a, b), rx in zip(survey.sources, survey.receivers):
            for m, n in rx:
                assert len({a, b, m, n}) == 4

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


class TestSurveyValidation:
    def test_source_same_electrode(self):
        with pytest.raises(ValueError):
            Survey(electrodes=np.array([0.0, 1.0]), sources=((0, 0),),
                   receivers=(((0, 1),),))

    def test_receiver_index_out_of_range(self):
        with pytest.raises(ValueError):
            Survey(electrodes=np.array([0.0, 1.0]), sources=((0, 1),),
                   receivers=(((1, 2),),))

