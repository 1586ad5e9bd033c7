"""Generators, normalization, price ingestion, and the file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbet.data import (
    NoiseSpec,
    PriceSeries,
    gen_ar1,
    gen_arma21,
    load_movement_matrix,
    load_prices,
    movements_from_prices,
    normalize,
    write_movements,
)
from seqbet.errors import DataError, UsageError


class TestAr1:
    @pytest.mark.parametrize("n", [1, 2, 50, 2520])
    def test_recursion_on_seeded_noise(self, n):
        for seed in range(20):
            expected, prev = [], 0.0
            for e in NoiseSpec(seed).draw(n):
                prev = 0.6 * prev + e
                expected.append(prev)
            np.testing.assert_array_equal(gen_ar1(n, NoiseSpec(seed)), expected)

    def test_seed_reproducibility(self):
        a = gen_ar1(100, NoiseSpec(seed=9))
        b = gen_ar1(100, NoiseSpec(seed=9))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, gen_ar1(100, NoiseSpec(seed=10)))

    def test_lag1_autocorrelation_near_ar_coefficient(self):
        # Sample-statistic oracle over 5 seeded runs of length 1000.
        corrs = []
        for seed in range(5):
            xs = gen_ar1(1000, NoiseSpec(seed=seed))
            corrs.append(np.corrcoef(xs[:-1], xs[1:])[0, 1])
        assert abs(np.mean(corrs) - 0.6) < 0.1

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            gen_ar1(0, NoiseSpec(0))


class TestArma21:
    @pytest.mark.parametrize("n", [1, 2, 50, 2520])
    def test_recursion_on_seeded_noise(self, n):
        for seed in range(20):
            expected, prev, prev2, e_prev = [], 0.0, 0.0, 0.0
            for e in NoiseSpec(seed).draw(n):
                x = 0.6 * prev + 0.3 * prev2 + e - 0.5 * e_prev
                expected.append(x)
                prev2, prev, e_prev = prev, x, e
            np.testing.assert_array_equal(gen_arma21(n, NoiseSpec(seed)), expected)

    def test_seed_reproducibility(self):
        np.testing.assert_array_equal(
            gen_arma21(64, NoiseSpec(3)), gen_arma21(64, NoiseSpec(3))
        )

    def test_variance_finite_and_stable(self):
        variances = [np.var(gen_arma21(1000, NoiseSpec(seed=s))) for s in range(5)]
        assert all(np.isfinite(v) for v in variances)
        assert max(variances) < 3.0 * min(variances)


class TestNoise:
    def test_distribution_desk_check(self):
        draws = NoiseSpec(seed=77).draw(10_000)
        assert abs(draws.mean()) < 0.1
        assert 0.8 < draws.var() < 1.2


class TestNormalize:
    def test_self_normalization(self):
        ms = normalize([10.0, -5.0, 15.0])
        np.testing.assert_allclose(ms.values, [2.0 / 3.0, -1.0 / 3.0, 1.0], atol=1e-12)
        assert ms.values[2] == 1.0  # extreme element maps exactly to the bound

    def test_disjoint_reference_clamps(self):
        ms = normalize([2.0], rule_source=[1.0, -0.5])
        assert ms.values[0] == 1.0

    def test_all_zero_reference_rejected(self):
        with pytest.raises(DataError):
            normalize([0.0, 0.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_output_in_range(self, raw):
        if not any(v != 0 for v in raw):
            return
        values = normalize(raw).values
        assert np.abs(values).max() <= 1.0
        assert np.abs(values).max() == 1.0  # attained at the extreme element


class TestPrices:
    def test_movements_are_differences(self):
        import datetime

        days = [datetime.date(2007, 3, 1) + datetime.timedelta(days=i) for i in range(3)]
        prices = PriceSeries(days, [100.0, 110.0, 105.0])
        np.testing.assert_allclose(movements_from_prices(prices), [10.0, -5.0])

    def test_constant_prices_zero_movements(self):
        import datetime

        days = [datetime.date(2007, 3, 1) + datetime.timedelta(days=i) for i in range(4)]
        assert not movements_from_prices(PriceSeries(days, [5.0] * 4)).any()

    def test_single_close_rejected(self):
        import datetime

        prices = PriceSeries([datetime.date(2007, 3, 1)], [100.0])
        with pytest.raises(UsageError):
            movements_from_prices(prices)

    def test_cumulative_sum_roundtrip(self, rng):
        import datetime

        days = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(30)]
        closes = np.abs(rng.normal(100, 5, 30)) + 1.0
        prices = PriceSeries(days, closes)
        moves = movements_from_prices(prices)
        np.testing.assert_allclose(closes[0] + np.cumsum(moves), closes[1:], atol=1e-9)


class TestLoadPrices:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2007-03-01,100.0\n2007-03-02,110.0\n")
        prices = load_prices(path)
        assert len(prices) == 2
        assert prices.closes[1] == 110.0

    def test_header_detected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2007-03-01,100.0\n")
        assert len(load_prices(path)) == 1

    def test_dated_first_line_with_bad_close_is_not_a_header(self, tmp_path):
        # Only a line without an ISO date can be the header; a dated record
        # with a bad value is reported, not dropped.
        path = tmp_path / "p.csv"
        path.write_text("2006-01-02,abc\n2006-01-03,101\n2006-01-04,102\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:1: non-numeric value"):
            load_prices(path)

    def test_undated_first_line_with_a_close_is_a_bad_date(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,100.0\n2007-03-01,101.0\n")
        with pytest.raises(DataError, match=":1: bad ISO date 'date'"):
            load_prices(path)

    def test_negative_close_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2007-03-01,100.0\n2007-03-02,-5\n")
        with pytest.raises(DataError, match=":2"):
            load_prices(path)

    def test_shuffled_dates_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2007-03-02,100.0\n2007-03-01,101.0\n")
        with pytest.raises(DataError, match="increasing"):
            load_prices(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2007-03-01,100.0\n2007-03-02,ten\n")
        with pytest.raises(DataError, match=":2"):
            load_prices(path)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("03/01/2007,100.0\n")
        with pytest.raises(DataError, match="ISO"):
            load_prices(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no price records"):
            load_prices(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        text = "2006-01-02,100\n2006-01-03,101\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = load_prices(plain), load_prices(marked)
        assert a.dates == b.dates
        np.testing.assert_array_equal(a.closes, b.closes)

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_crlf_line_ends_read_as_plain(self, tmp_path, encoding):
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        text = "date,close\n2006-01-02,100\n\n2006-01-03,101\n"
        plain.write_bytes(text.encode("utf-8"))
        other.write_bytes(text.replace("\n", "\r\n").encode(encoding))
        a, b = load_prices(plain), load_prices(other)
        assert a.dates == b.dates
        assert a.closes.tobytes() == b.closes.tobytes()

    def test_file_that_is_not_utf8_names_itself(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,clos\xe9\n2006-01-02,100\n")
        with pytest.raises(DataError) as info:
            load_prices(path)
        assert str(info.value) == f"{path}: is not UTF-8 text: invalid continuation byte at byte 9"

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_file_that_cannot_be_read_names_itself(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: cannot be read: "):
            load_prices(path)


class TestMovementMatrix:
    def test_roundtrip(self, tmp_path, rng):
        import datetime

        days = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(5)]
        values = rng.uniform(-1, 1, (5, 3))
        path = tmp_path / "m.csv"
        write_movements(path, days, values)
        dates, loaded = load_movement_matrix(path)
        assert dates == days
        np.testing.assert_array_equal(loaded, values)

    def test_writer_needs_one_date_per_row(self, tmp_path):
        import datetime

        days = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(3)]
        path = tmp_path / "m.csv"
        with pytest.raises(UsageError, match="3 dates and 5 rows"):
            write_movements(path, days, np.zeros(5))
        assert not path.exists()

    def test_leading_blank_line_and_header(self, tmp_path):
        # The first non-blank line fixes the column count and may be a header.
        path = tmp_path / "m.csv"
        path.write_text("\n2020-01-01,0.1,-0.2\n2020-01-02,0.3,0.4\n")
        dates, values = load_movement_matrix(path)
        assert len(dates) == 2
        np.testing.assert_array_equal(values, [[0.1, -0.2], [0.3, 0.4]])
        path.write_text("\n\ndate,a,b\n2020-01-01,0.1,-0.2\n")
        dates, values = load_movement_matrix(path)
        np.testing.assert_array_equal(values, [[0.1, -0.2]])
        path.write_text("\n2020-01-01,0.1,x\n2020-01-02,0.3,0.4\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: non-numeric value"):
            load_movement_matrix(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        text = "2020-01-01,0.1,-0.2\n2020-01-02,0.3,0.4\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        (a_dates, a), (b_dates, b) = load_movement_matrix(plain), load_movement_matrix(marked)
        assert a_dates == b_dates
        np.testing.assert_array_equal(a, b)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2020-01-01,0.1,0.2\n2020-01-02,0.3\n")
        with pytest.raises(DataError, match="fields"):
            load_movement_matrix(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2020-01-01,0.1,1.5\n")
        with pytest.raises(DataError, match=r"\[-1, 1\]"):
            load_movement_matrix(path)

    def test_nan_rejected_with_its_line(self, tmp_path):
        # NaN fails every comparison, so a range test written as `> 1.0`
        # would let it through; the line names the file and the row.
        path = tmp_path / "m.csv"
        path.write_text("2020-01-01,0.1,0.2\n2020-01-02,0.1,nan\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: .*\[-1, 1\]"):
            load_movement_matrix(path)

    def test_single_asset_writer(self, tmp_path):
        import datetime

        days = [datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)]
        path = tmp_path / "m.csv"
        write_movements(path, days, np.array([0.25, -0.5]))
        assert path.read_text() == "2020-01-01,0.25\n2020-01-02,-0.5\n"
