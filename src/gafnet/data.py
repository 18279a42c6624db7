"""Dataset ingestion: UCR archive text files and WFDB/MIT-BIH records.

UCR files: one series per line, first field the integer class label, the rest
the series values, tab- or comma-separated. WFDB: text header, format-212
binary signal file, MIT binary annotation file.
"""

import logging
import math
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dsp import Signal
from .errors import DataFormatError

log = logging.getLogger(__name__)

# The 15 MIT-BIH beat types used as the class vocabulary, in ascending
# annotation-code order: N, L, R, a, V, F, J, A, S, E, j, /, Q, e, f.
MITBIH_BEAT_CODES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 34, 38)

BEAT_CODE_MIN, BEAT_CODE_MAX = 1, 49  # annotation codes denoting beats


@dataclass
class Dataset:
    """Labeled fixed-length series with a class vocabulary."""

    values: np.ndarray  # (N, w)
    labels: np.ndarray  # (N,) contiguous 0-based class ids
    class_names: List[str]
    fs: float = 1.0
    split_tag: str = "train"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2 or self.values.shape[0] == 0:
            raise DataFormatError("dataset must contain at least one series")
        if self.labels.shape != (self.values.shape[0],):
            raise DataFormatError("labels misaligned with series")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DataFormatError("label outside class vocabulary")

    def __len__(self):
        return self.values.shape[0]

    @property
    def series_length(self) -> int:
        return self.values.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def subset(self, idx, split_tag: Optional[str] = None) -> "Dataset":
        return Dataset(
            values=self.values[idx],
            labels=self.labels[idx],
            class_names=self.class_names,
            fs=self.fs,
            split_tag=split_tag or self.split_tag,
        )


def load_ucr(path, fs: float = 1.0, split_tag: str = "train") -> Dataset:
    """Parse a UCR-style text file; original labels are relabeled to contiguous
    0-based ids in ascending order."""
    raw_labels: List[float] = []
    rows: List[np.ndarray] = []
    line_nos: List[int] = []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split("\t") if "\t" in line else line.split(",")
            if len(fields) < 2:
                raise DataFormatError(f"{path}:{line_no}: row has no series values")
            try:
                numbers = np.array(fields, dtype=np.float64)  # parses each field as float() does
            except ValueError as e:
                raise DataFormatError(f"{path}:{line_no}: non-numeric field ({e})") from None
            if rows and len(numbers) - 1 != len(rows[0]):
                raise DataFormatError(f"{path}:{line_no}: inconsistent series length")
            label = float(numbers[0])
            if not math.isfinite(label):
                raise DataFormatError(f"{path}:{line_no}: non-finite class label {fields[0]}")
            if label != int(label):
                raise DataFormatError(f"{path}:{line_no}: non-integer class label {label}")
            raw_labels.append(int(label))
            rows.append(numbers[1:])
            line_nos.append(line_no)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    values = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        row, col = bad[0]
        raise DataFormatError(f"{path}:{line_nos[row]}: non-finite series value {values[row, col]} in field {col + 2}")
    vocab = sorted(set(raw_labels))
    mapping = {orig: i for i, orig in enumerate(vocab)}
    labels = np.array([mapping[l] for l in raw_labels], dtype=np.int64)
    return Dataset(
        values=values,
        labels=labels,
        class_names=[str(v) for v in vocab],
        fs=fs,
        split_tag=split_tag,
    )


# ---------------------------------------------------------------------------
# WFDB header / signal / annotations


@dataclass
class SignalSpec:
    file_name: str
    fmt: int
    gain: float = 200.0  # adu per mV
    baseline: int = 0
    description: str = ""


@dataclass
class WfdbHeader:
    record_name: str
    n_signals: int
    fs: float
    n_samples: int
    signals: List[SignalSpec]


def parse_wfdb_header(text: str) -> WfdbHeader:
    """Parse WFDB header text; only format 212 signals are supported."""
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    if not lines:
        raise DataFormatError("malformed header: no record line")
    rec = lines[0].split()
    if len(rec) < 4:
        raise DataFormatError(f"malformed record line: {lines[0]!r}")
    try:
        name = rec[0].split("/")[0]
        n_signals = int(rec[1])
        fs = float(rec[2].split("/")[0])
        n_samples = int(rec[3])
    except ValueError:
        raise DataFormatError(f"malformed record line: {lines[0]!r}") from None
    if n_signals < 1 or fs <= 0:
        raise DataFormatError("header must declare at least one signal and fs > 0")
    if len(lines) < 1 + n_signals:
        raise DataFormatError("header declares more signals than spec lines present")
    specs = []
    for line in lines[1 : 1 + n_signals]:
        fields = line.split()
        if len(fields) < 2:
            raise DataFormatError(f"malformed signal line: {line!r}")
        fmt_token = re.split(r"[x:+]", fields[1])[0]
        try:
            fmt = int(fmt_token)
        except ValueError:
            raise DataFormatError(f"malformed format field: {fields[1]!r}") from None
        if fmt != 212:
            raise DataFormatError(f"unsupported signal format {fmt} (only 212)")
        # the baseline is the ADC zero (field 5) unless the gain field gives one
        gain, baseline = 200.0, fields[4] if len(fields) > 4 else "0"
        if len(fields) >= 3:
            # gain field may look like "200", "200/mV", or "200(1024)/mV"
            m = re.match(r"^(-?[\d.]+)(?:\((-?\d+)\))?", fields[2])
            if not m:
                raise DataFormatError(f"malformed gain field: {fields[2]!r}")
            gain = float(m.group(1)) or 200.0
            baseline = m.group(2) or baseline
        if not re.fullmatch(r"-?\d+", baseline):
            raise DataFormatError(f"malformed ADC zero field: {baseline!r}")
        desc = " ".join(fields[8:])  # the description follows the block size (field 8)
        specs.append(SignalSpec(file_name=fields[0], fmt=fmt, gain=gain, baseline=int(baseline), description=desc))
    return WfdbHeader(record_name=name, n_signals=n_signals, fs=fs, n_samples=n_samples, signals=specs)


def parse_wfdb_212(data: bytes, header: WfdbHeader) -> List[Signal]:
    """Decode format-212 packed samples into one calibrated Signal per channel.

    Each byte triple (b0, b1, b2) packs two 12-bit two's-complement samples:
    A = ((b1 & 0x0F) << 8) | b0 and B = ((b1 & 0xF0) << 4) | b2. Samples
    interleave across the two channels; adu converts to mV via
    (adu - baseline) / gain.
    """
    if header.n_signals != 2:
        raise DataFormatError("format-212 decoding implemented for 2-channel records")
    need = 3 * header.n_samples
    if len(data) < need:
        raise DataFormatError(f"truncated payload: need {need} bytes, have {len(data)}")
    raw = np.frombuffer(data[:need], dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    a = ((raw[:, 1] & 0x0F) << 8) | raw[:, 0]
    b = ((raw[:, 1] & 0xF0) << 4) | raw[:, 2]
    samples = np.stack([a, b], axis=1)
    samples[samples > 2047] -= 4096  # 12-bit two's complement
    out = []
    for ch in range(2):
        spec = header.signals[ch]
        mv = (samples[:, ch] - spec.baseline) / spec.gain
        out.append(Signal(samples=mv, fs=header.fs))
    return out


@dataclass
class Annotation:
    sample_index: int
    type_code: int
    channel: int = 0


# MIT annotation pseudo-codes (high 6 bits of each 16-bit word)
_SKIP, _NUM, _SUB, _CHN, _AUX = 59, 60, 61, 62, 63


def parse_wfdb_annotations(data: bytes) -> List[Annotation]:
    """Parse a MIT annotation byte stream into beat annotations.

    Words are 2-byte little-endian; code = word >> 10, delta = word & 0x3FF.
    A zero word terminates. SKIP extends the time base by a 4-byte interval
    (high word first), NUM/SUB/CHN adjust bookkeeping, AUX carries `delta`
    bytes of text padded to even length. Only beat codes (1..49) are emitted.
    """
    out: List[Annotation] = []
    time = 0
    chan = 0
    pos = 0
    n = len(data)
    terminated = False
    while pos + 2 <= n:
        word = data[pos] | (data[pos + 1] << 8)
        pos += 2
        code = word >> 10
        delta = word & 0x3FF
        if code == 0 and delta == 0:
            terminated = True
            break
        if code == _SKIP:
            if pos + 4 > n:
                raise DataFormatError("truncated SKIP interval")
            hi = data[pos] | (data[pos + 1] << 8)
            lo = data[pos + 2] | (data[pos + 3] << 8)
            pos += 4
            time += (hi << 16) | lo
        elif code == _AUX:
            skip = delta + (delta & 1)  # aux text padded to even length
            if pos + skip > n:
                raise DataFormatError("truncated AUX payload")
            pos += skip
        elif code == _CHN:
            chan = delta & 0xFF
        elif code in (_NUM, _SUB):
            pass  # bookkeeping only
        else:
            time += delta
            if BEAT_CODE_MIN <= code <= BEAT_CODE_MAX:
                out.append(Annotation(sample_index=time, type_code=code, channel=chan))
    if not terminated:
        raise DataFormatError("annotation stream lacks the zero terminator")
    return out


def extract_beats(signals: Sequence[Signal], annotations: Sequence[Annotation], window: int = 360) -> Dataset:
    """Cut a centered window around each beat annotation from channel 0.

    Beats whose window exceeds the record bounds are skipped; beat codes
    outside the 15-type vocabulary are dropped (with a logged count).
    """
    if window % 2:
        raise ValueError("window must be even")
    sig = signals[0]
    x = sig.samples
    half = window // 2
    class_of = {code: i for i, code in enumerate(MITBIH_BEAT_CODES)}
    rows, labels = [], []
    dropped = 0
    for ann in annotations:
        cls = class_of.get(ann.type_code)
        if cls is None:
            dropped += 1
            continue
        start = ann.sample_index - half
        if start < 0 or start + window > x.size:
            continue
        rows.append(x[start : start + window])
        labels.append(cls)
    if dropped:
        log.info("extract_beats: dropped %d beats with codes outside the vocabulary", dropped)
    if not rows:
        raise DataFormatError("no beats extracted")
    return Dataset(
        values=np.stack(rows),
        labels=np.array(labels, dtype=np.int64),
        class_names=[str(c) for c in MITBIH_BEAT_CODES],
        fs=sig.fs,
    )


def load_wfdb_record(prefix, window: int = 360) -> Dataset:
    """Read <prefix>.hea/.dat/.atr and extract labeled beats."""
    with open(f"{prefix}.hea") as f:
        header = parse_wfdb_header(f.read())
    with open(f"{prefix}.dat", "rb") as f:
        signals = parse_wfdb_212(f.read(), header)
    with open(f"{prefix}.atr", "rb") as f:
        annotations = parse_wfdb_annotations(f.read())
    return extract_beats(signals, annotations, window=window)


def concat_datasets(datasets: Sequence[Dataset]) -> Dataset:
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.class_names != first.class_names or ds.series_length != first.series_length:
            raise DataFormatError("cannot concatenate datasets with different vocabularies or lengths")
    return Dataset(
        values=np.concatenate([ds.values for ds in datasets]),
        labels=np.concatenate([ds.labels for ds in datasets]),
        class_names=first.class_names,
        fs=first.fs,
        split_tag=first.split_tag,
    )


# ---------------------------------------------------------------------------
# splits


def stratified_indices(labels, fraction: float, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class proportional index split into two sorted parts; the first
    receives `fraction` of each class. A class with a single sample cannot be
    stratified and falls into the first part."""
    labels = np.asarray(labels)
    first, second = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size == 1:
            first.extend(idx)
            continue
        perm = rng.permutation(idx)
        n_first = int(round(fraction * idx.size))
        n_first = min(max(n_first, 1), idx.size - 1)
        first.extend(perm[:n_first])
        second.extend(perm[n_first:])
    return np.sort(np.array(first, dtype=np.int64)), np.sort(np.array(second, dtype=np.int64))


def stratified_split(ds: Dataset, fraction: float, seed: int) -> Tuple[Dataset, Dataset]:
    """Seeded `stratified_indices` split; the first (train) part receives `fraction`."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    a, b = stratified_indices(ds.labels, fraction, np.random.Generator(np.random.PCG64(seed)))
    return ds.subset(a), ds.subset(b, split_tag="test")
