"""Data ingestion tests: UCR text parsing, WFDB header/212/annotation decoding
against hand-packed byte fixtures, beat extraction, splits, batching."""

import numpy as np
import pytest

from gafnet import data
from gafnet.dsp import Signal
from gafnet.errors import DataFormatError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def pack_212(samples):
    """Independent format-212 packer for round-trip tests.

    samples: (n, 2) ints in [-2048, 2047]; channel order A, B per triple.
    """
    out = bytearray()
    for a, b in samples:
        a &= 0xFFF
        b &= 0xFFF
        out.append(a & 0xFF)
        out.append(((a >> 8) & 0x0F) | (((b >> 8) & 0x0F) << 4))
        out.append(b & 0xFF)
    return bytes(out)


def ann_word(code, delta):
    word = (code << 10) | delta
    return bytes([word & 0xFF, word >> 8])


HEADER_2CH = (
    "100 2 360 650000\n"
    "100.dat 212 200 11 1024 995 -22131 0 MLII\n"
    "100.dat 212 200 11 1024 1011 20052 0 V5\n"
)


class TestLoadUcr:
    def test_tab_separated_relabeling(self, tmp_path):
        path = write(tmp_path, "a.tsv", "2\t1.0\t2.0\n1\t3.0\t4.0\n2\t5.0\t6.0\n")
        ds = data.load_ucr(path)
        assert ds.class_names == ["1", "2"]
        assert ds.labels.tolist() == [1, 0, 1]
        assert np.array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_comma_separated(self, tmp_path):
        path = write(tmp_path, "a.csv", "-1,0.5,0.25\n1,2.5,3.5\n")
        ds = data.load_ucr(path)
        assert ds.class_names == ["-1", "1"]
        assert ds.labels.tolist() == [0, 1]

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a.tsv", "0\t1.0\n\n1\t2.0\n")
        assert len(data.load_ucr(path)) == 2

    def test_non_numeric_rejected(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "0\t1.0\tfoo\n")
        with pytest.raises(DataFormatError):
            data.load_ucr(path)

    def test_inconsistent_length_rejected(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "0\t1.0\t2.0\n1\t3.0\n")
        with pytest.raises(DataFormatError):
            data.load_ucr(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "empty.tsv", "\n\n")
        with pytest.raises(DataFormatError):
            data.load_ucr(path)

    def test_label_only_row_rejected(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "3\n")
        with pytest.raises(DataFormatError):
            data.load_ucr(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "0.5\t1.0\n")
        with pytest.raises(DataFormatError):
            data.load_ucr(path)

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan"])
    def test_non_finite_label_rejected_with_location(self, tmp_path, label):
        path = write(tmp_path, "bad.tsv", f"1\t1.0\t2.0\n{label}\t3.0\t4.0\n")
        with pytest.raises(DataFormatError, match=r"bad\.tsv:2: non-finite class label"):
            data.load_ucr(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_series_value_rejected_with_location(self, tmp_path, value):
        path = write(tmp_path, "bad.tsv", f"1\t1.0\t2.0\n\n2\t3.0\t{value}\n")
        with pytest.raises(DataFormatError, match=r"bad\.tsv:3: non-finite series value .* in field 3"):
            data.load_ucr(path)


UCR_FIELDS = ["1_0", "Infinity", " 3.5 ", "-.25", "+7e-3", "1e999", "nan", "foo", "0x10", "", "1__0", "3,5"]


class TestLoadUcrParsing:
    """Fields parse as Python's float() parses them: the same values and the
    same error messages as a float() call per field."""

    @pytest.mark.parametrize("sep, field", [(sep, f) for sep in "\t," for f in UCR_FIELDS if sep not in f])
    def test_series_field_as_float_parses_it(self, tmp_path, sep, field):
        path = write(tmp_path, "f.txt", sep.join(["1", field, "2.0"]) + "\n")  # inside the line, which is stripped
        try:
            want = float(field)
        except ValueError as e:
            with pytest.raises(DataFormatError) as info:
                data.load_ucr(path)
            assert str(info.value) == f"{path}:1: non-numeric field ({e})"
            return
        if not np.isfinite(want):
            with pytest.raises(DataFormatError) as info:
                data.load_ucr(path)
            assert str(info.value) == f"{path}:1: non-finite series value {want} in field 2"
            return
        ds = data.load_ucr(path)
        assert ds.values.dtype == np.float64
        assert ds.values[0].tobytes() == np.array([want, 2.0]).tobytes()

    @pytest.mark.parametrize(
        "label, message",
        [
            (" 2 ", None),
            ("1_0", None),
            ("3.0", None),
            ("2.5", "non-integer class label 2.5"),
            ("Infinity", "non-finite class label Infinity"),
            ("x1", "non-numeric field (could not convert string to float: 'x1')"),
        ],
    )
    def test_label_field(self, tmp_path, label, message):
        path = write(tmp_path, "l.tsv", f"0\t1.0\n{label}\t2.0\n")
        if message is None:
            ds = data.load_ucr(path)
            assert ds.class_names == ["0", str(int(float(label)))] and ds.labels.tolist() == [0, 1]
            return
        with pytest.raises(DataFormatError) as info:
            data.load_ucr(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_inconsistent_length_message(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "0\t1.0\t2.0\n\n1\t3.0\n")
        with pytest.raises(DataFormatError) as info:
            data.load_ucr(path)
        assert str(info.value) == f"{path}:3: inconsistent series length"


class TestWfdbHeader:
    def test_typical_record(self):
        h = data.parse_wfdb_header(HEADER_2CH)
        assert h.record_name == "100" and h.n_signals == 2
        assert h.fs == 360.0 and h.n_samples == 650000
        assert h.signals[0].gain == 200.0 and h.signals[0].baseline == 1024
        assert h.signals[0].description == "MLII"

    def test_gain_with_baseline_suffix(self):
        h = data.parse_wfdb_header("r 1 250 100\nr.dat 212 200(1024)/mV\n")
        assert h.signals[0].gain == 200.0 and h.signals[0].baseline == 1024

    def test_baseline_from_adc_zero(self):
        h = data.parse_wfdb_header("r 1 250 100\nr.dat 212 200 11 -37 0 0 0 I\n")
        assert h.signals[0].baseline == -37

    def test_gain_baseline_overrides_adc_zero(self):
        h = data.parse_wfdb_header("r 1 250 100\nr.dat 212 200(5)/mV 11 1024 0 0 0 I\n")
        assert h.signals[0].baseline == 5

    def test_short_line_has_no_description(self):
        h = data.parse_wfdb_header("r 1 250 100\nr.dat 212 200 11 1024 0 0\n")
        assert h.signals[0].baseline == 1024 and h.signals[0].description == ""
        h = data.parse_wfdb_header("r 1 250 100\nr.dat 212 200\n")
        assert h.signals[0].baseline == 0 and h.signals[0].description == ""

    def test_multi_word_description(self):
        h = data.parse_wfdb_header("r 1 250 100\nr.dat 212 200 11 0 0 0 0 lead II chest\n")
        assert h.signals[0].description == "lead II chest"

    def test_malformed_adc_zero_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_header("r 1 250 100\nr.dat 212 200 11 zero\n")

    def test_comments_skipped(self):
        h = data.parse_wfdb_header("# age 69\n" + HEADER_2CH + "# sex M\n")
        assert h.n_signals == 2

    def test_unsupported_format_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_header("r 1 250 100\nr.dat 16\n")

    def test_comment_only_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_header("# nothing here\n")

    def test_missing_signal_lines_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_header("r 2 250 100\nr.dat 212\n")


class TestWfdb212:
    def unit_gain_header(self, n_samples):
        specs = [data.SignalSpec(file_name="r.dat", fmt=212, gain=1.0, baseline=0) for _ in range(2)]
        return data.WfdbHeader(record_name="r", n_signals=2, fs=360.0, n_samples=n_samples, signals=specs)

    def test_positive_pair(self):
        sigs = data.parse_wfdb_212(bytes([0x01, 0x00, 0x02]), self.unit_gain_header(1))
        assert sigs[0].samples[0] == 1.0 and sigs[1].samples[0] == 2.0

    def test_negative_sample(self):
        # A = 0xFFF -> -1 in 12-bit two's complement, B = 0
        sigs = data.parse_wfdb_212(bytes([0xFF, 0x0F, 0x00]), self.unit_gain_header(1))
        assert sigs[0].samples[0] == -1.0 and sigs[1].samples[0] == 0.0

    def test_extremes(self):
        blob = pack_212([(2047, -2048)])
        sigs = data.parse_wfdb_212(blob, self.unit_gain_header(1))
        assert sigs[0].samples[0] == 2047.0 and sigs[1].samples[0] == -2048.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(-2048, 2048, size=(200, 2))
        sigs = data.parse_wfdb_212(pack_212(samples), self.unit_gain_header(200))
        assert np.array_equal(sigs[0].samples, samples[:, 0].astype(float))
        assert np.array_equal(sigs[1].samples, samples[:, 1].astype(float))

    def test_gain_and_baseline_applied(self):
        specs = [
            data.SignalSpec(file_name="r.dat", fmt=212, gain=200.0, baseline=1024),
            data.SignalSpec(file_name="r.dat", fmt=212, gain=100.0, baseline=0),
        ]
        header = data.WfdbHeader(record_name="r", n_signals=2, fs=360.0, n_samples=1, signals=specs)
        sigs = data.parse_wfdb_212(pack_212([(1224, 50)]), header)
        assert sigs[0].samples[0] == pytest.approx(1.0)  # (1224 - 1024) / 200
        assert sigs[1].samples[0] == pytest.approx(0.5)  # 50 / 100

    def test_truncated_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_212(bytes([0x01, 0x00]), self.unit_gain_header(1))


class TestAnnotations:
    def test_beat_deltas_accumulate(self):
        blob = ann_word(1, 10) + ann_word(5, 20) + ann_word(0, 0)
        anns = data.parse_wfdb_annotations(blob)
        assert [(a.sample_index, a.type_code) for a in anns] == [(10, 1), (30, 5)]

    def test_skip_extends_time_base(self):
        # SKIP interval 0x00010002 = 65538 samples, high word first
        interval = bytes([0x01, 0x00, 0x02, 0x00])
        blob = ann_word(59, 0) + interval + ann_word(1, 5) + ann_word(0, 0)
        (ann,) = data.parse_wfdb_annotations(blob)
        assert ann.sample_index == 65538 + 5

    def test_aux_payload_skipped_with_padding(self):
        blob = ann_word(1, 10) + ann_word(63, 3) + b"abc\x00" + ann_word(2, 7) + ann_word(0, 0)
        anns = data.parse_wfdb_annotations(blob)
        assert [(a.sample_index, a.type_code) for a in anns] == [(10, 1), (17, 2)]

    def test_chn_changes_channel(self):
        blob = ann_word(1, 4) + ann_word(62, 1) + ann_word(1, 4) + ann_word(0, 0)
        anns = data.parse_wfdb_annotations(blob)
        assert anns[0].channel == 0 and anns[1].channel == 1

    def test_num_sub_ignored(self):
        blob = ann_word(60, 3) + ann_word(61, 2) + ann_word(1, 9) + ann_word(0, 0)
        (ann,) = data.parse_wfdb_annotations(blob)
        assert ann.sample_index == 9

    def test_non_beat_codes_not_emitted(self):
        # code 50 advances time but is not a beat
        blob = ann_word(50, 10) + ann_word(1, 5) + ann_word(0, 0)
        (ann,) = data.parse_wfdb_annotations(blob)
        assert ann.sample_index == 15

    def test_unterminated_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_annotations(ann_word(1, 10))

    def test_truncated_skip_rejected(self):
        with pytest.raises(DataFormatError):
            data.parse_wfdb_annotations(ann_word(59, 0) + b"\x01\x00")


class TestExtractBeats:
    def make_signal(self, n=1000):
        return Signal(samples=np.arange(n, dtype=float), fs=360.0)

    def test_centered_window(self):
        anns = [data.Annotation(sample_index=500, type_code=1)]
        ds = data.extract_beats([self.make_signal()], anns, window=4)
        assert np.array_equal(ds.values[0], [498, 499, 500, 501])
        assert ds.labels[0] == 0  # code 1 is the first vocabulary entry

    def test_vocabulary_mapping(self):
        anns = [
            data.Annotation(sample_index=100, type_code=5),   # V
            data.Annotation(sample_index=200, type_code=38),  # f
        ]
        ds = data.extract_beats([self.make_signal()], anns, window=4)
        assert ds.labels.tolist() == [4, 14]
        assert ds.class_names == [str(c) for c in data.MITBIH_BEAT_CODES]

    def test_out_of_bounds_skipped(self):
        anns = [
            data.Annotation(sample_index=1, type_code=1),
            data.Annotation(sample_index=500, type_code=1),
            data.Annotation(sample_index=999, type_code=1),
        ]
        ds = data.extract_beats([self.make_signal()], anns, window=8)
        assert len(ds) == 1

    def test_unmapped_codes_dropped(self):
        anns = [
            data.Annotation(sample_index=500, type_code=1),
            data.Annotation(sample_index=600, type_code=40),  # beat code outside the vocabulary
        ]
        ds = data.extract_beats([self.make_signal()], anns, window=4)
        assert len(ds) == 1

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError):
            data.extract_beats([self.make_signal()], [], window=5)

    def test_no_beats_rejected(self):
        with pytest.raises(DataFormatError):
            data.extract_beats([self.make_signal()], [], window=4)


class TestDatasetOps:
    def make_dataset(self, n=40, w=6, num_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        return data.Dataset(
            values=rng.standard_normal((n, w)),
            labels=np.arange(n) % num_classes,
            class_names=[f"c{i}" for i in range(num_classes)],
        )

    def test_concat(self):
        a = self.make_dataset(seed=1)
        b = self.make_dataset(seed=2)
        merged = data.concat_datasets([a, b])
        assert len(merged) == 80
        assert np.array_equal(merged.values[:40], a.values)

    def test_concat_mismatch_rejected(self):
        a = self.make_dataset()
        b = data.Dataset(values=np.zeros((2, 6)), labels=[0, 1], class_names=["x", "y"])
        with pytest.raises(DataFormatError):
            data.concat_datasets([a, b])

    def test_stratified_split_proportions(self):
        ds = self.make_dataset(n=100, num_classes=4)
        train, test = data.stratified_split(ds, 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20
        for c in range(4):
            assert np.sum(train.labels == c) == 20
            assert np.sum(test.labels == c) == 5
        assert sorted(np.concatenate([np.flatnonzero(np.isin(ds.values[:, 0], s.values[:, 0])) for s in (train, test)]).tolist()) == list(range(100))

    def test_stratified_split_deterministic(self):
        ds = self.make_dataset(n=60)
        a = data.stratified_split(ds, 0.75, seed=9)
        b = data.stratified_split(ds, 0.75, seed=9)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_singleton_class_goes_to_train(self):
        ds = data.Dataset(
            values=np.arange(10, dtype=float).reshape(5, 2),
            labels=[0, 0, 0, 0, 1],
            class_names=["a", "b"],
        )
        train, test = data.stratified_split(ds, 0.5, seed=0)
        assert 1 in train.labels and 1 not in test.labels

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            data.stratified_split(self.make_dataset(), 1.5, seed=0)

    def test_dataset_validation(self):
        with pytest.raises(DataFormatError):
            data.Dataset(values=np.zeros((0, 4)), labels=np.zeros(0), class_names=["a"])
        with pytest.raises(DataFormatError):
            data.Dataset(values=np.zeros((2, 4)), labels=[0, 3], class_names=["a", "b"])


class TestLoadWfdbRecord:
    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 2000
        samples = rng.integers(-200, 200, size=(n, 2))
        (tmp_path / "rec.hea").write_text(
            f"rec 2 360 {n}\nrec.dat 212 1 11 1024 0 0 0 MLII\nrec.dat 212 1 11 1024 0 0 0 V5\n"
        )
        (tmp_path / "rec.dat").write_bytes(pack_212(samples))
        blob = ann_word(1, 500) + ann_word(5, 500) + ann_word(1, 500) + ann_word(0, 0)
        (tmp_path / "rec.atr").write_bytes(blob)
        ds = data.load_wfdb_record(tmp_path / "rec", window=100)
        assert len(ds) == 3
        assert ds.labels.tolist() == [0, 4, 0]
        # gain 1 adu/mV, baseline the ADC zero 1024
        assert np.array_equal(ds.values[0], samples[450:550, 0] - 1024.0)
