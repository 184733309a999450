"""Capture and artifact IO: raw IQ files, sidecars, manifests, models, CSVs.

Raw IQ payloads are headerless interleaved I,Q in int8/int16/float32
(little-endian by default), byte-compatible with repository captures such
as TexBat; all metadata lives in a JSON sidecar next to the payload.
Integer samples are scaled by 2^(bits-1); writing a value outside the
representable range is an error, never silent saturation — clipping would
corrupt the fingerprint features downstream.

Numeric fields in manifests and model files are serialized through JSON's
repr-based float encoding, which round-trips binary64 exactly.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fingerprint_features import FEATURE_DTYPE, FeatureWindowConfig
from .mvn_model import from_moments
from .receiver_core import EPOCH_DTYPE
from .signal_sim import BLOCK_SAMPLES, LABEL_NAMES, IqStream
from .spoof_detector import DetectorProfile

MODEL_FORMAT = "gnssfp-profile"
MODEL_VERSION = 1
MANIFEST_FORMAT = "gnssfp-manifest"
MANIFEST_VERSION = 1

_SAMPLE_DTYPES = {"int8": np.int8, "int16": np.int16, "float32": np.float32}
# Samples read_iq decodes, and labels CaptureWriter writes or load_label_runs
# reads, at a time.
_CHUNK = 1 << 16


class FormatError(ValueError):
    """A file's contents inconsistent with its declared format."""


class UnsupportedVersionError(ValueError):
    """Serialized artifact written by an incompatible format version."""


@dataclass(frozen=True)
class CaptureMeta:
    sample_rate: float
    sample_format: str = "int16"  # int8 | int16 | float32, interleaved I,Q
    byte_order: str = "little"  # "little" | "big"
    iq_swap: bool = False  # some captures interleave Q,I
    t0: float = 0.0
    notes: str = ""

    def __post_init__(self):
        if not 0 < self.sample_rate < np.inf:  # JSON allows NaN and Infinity
            raise ValueError("sample_rate must be positive and finite")
        if self.sample_format not in _SAMPLE_DTYPES:
            raise ValueError(f"unknown sample_format {self.sample_format!r}")
        if self.byte_order not in ("little", "big"):
            raise ValueError(f"byte_order must be 'little' or 'big', got {self.byte_order!r}")

    @property
    def dtype(self) -> np.dtype:
        dt = np.dtype(_SAMPLE_DTYPES[self.sample_format])
        return dt.newbyteorder("<" if self.byte_order == "little" else ">")


def _write_json(path, doc) -> None:
    with open(str(path), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def write_iq(stream: IqStream, path, meta: CaptureMeta, append: bool = False) -> None:
    """Write interleaved I,Q in the declared format plus a JSON sidecar.

    Exact inverse of read_iq for values representable in the format.
    Integer formats reject any sample whose scaled value falls outside
    [-2^(bits-1), 2^(bits-1) - 1], naming the first offending index. With
    `append` the payload goes to the end of the existing file, the sidecar
    is left as it is, and that index counts from the start of the file.
    """
    # complex64 memory is already interleaved I,Q float32.
    inter = np.ascontiguousarray(stream.samples, dtype=np.complex64).view(np.float32)
    if meta.iq_swap:
        inter = inter.reshape(-1, 2)[:, ::-1].ravel()
    if not np.isfinite(inter).all():
        raise ValueError("samples must be finite")

    if meta.sample_format == "float32":
        payload = inter.astype(meta.dtype, copy=False)
    else:
        # Scaling by a power of two is exact in float32.
        bits = 8 * np.dtype(_SAMPLE_DTYPES[meta.sample_format]).itemsize
        full = float(1 << (bits - 1))
        scaled = np.rint(inter * np.float32(full))
        bad = np.flatnonzero((scaled < -full) | (scaled > full - 1))
        if bad.size:
            i = int(bad[0])
            first = os.path.getsize(str(path)) // (bits // 4) if append else 0
            raise ValueError(
                f"sample {first + i // 2} ({'IQ'[i % 2]} component, value {float(inter[i])!r}) "
                f"is not representable in {meta.sample_format}: values must lie "
                f"in [-1, 1 - 2^-{bits - 1}]")
        payload = scaled.astype(meta.dtype)

    with open(str(path), "ab" if append else "wb") as f:
        payload.tofile(f)
    if not append:
        _write_json(sidecar_path(path), {"format": "gnssfp-capture", "version": 1,
                                         **asdict(meta)})


class CaptureWriter:
    """Write a capture block by block: the IQ payload and its sidecar at
    `path`, and the labels as a .npy array expanded from `label_runs`, the
    capture's (start, stop, code) runs of sample indices.

    Use it as a context manager and `write` each IqStream block in order;
    the runs must cover as many samples as the blocks. The files are
    written under temporary names and renamed into place when the `with`
    block ends without error, so a failed write leaves no payload, sidecar
    or labels file behind.
    """

    def __init__(self, path, meta: CaptureMeta, labels_path, label_runs):
        self.path, self.labels_path = str(path), str(labels_path)
        self.meta, self.label_runs = meta, list(label_runs)
        self.n_samples = sum(stop - start for start, stop, _ in self.label_runs)
        self.written = 0
        self._partial = {self.path: self.path + ".partial",
                         sidecar_path(self.path): sidecar_path(self.path + ".partial"),
                         self.labels_path: self.labels_path + ".partial"}

    def __enter__(self) -> "CaptureWriter":
        try:
            write_iq(IqStream(np.zeros(0, np.complex64), self.meta.sample_rate),
                     self._partial[self.path], self.meta)
            with open(self._partial[self.labels_path], "wb") as f:
                np.lib.format.write_array_header_1_0(f, {
                    "descr": "|u1", "fortran_order": False, "shape": (self.n_samples,)})
                for start, stop, code in self.label_runs:
                    for i in range(start, stop, _CHUNK):
                        np.full(min(_CHUNK, stop - i), code, dtype=np.uint8).tofile(f)
        except BaseException:
            self._remove_partial()
            raise
        return self

    def write(self, block: IqStream) -> None:
        write_iq(block, self._partial[self.path], self.meta, append=True)
        self.written += len(block.samples)

    def _remove_partial(self) -> None:
        for partial in self._partial.values():
            if os.path.exists(partial):
                os.remove(partial)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.written == self.n_samples:
            for final, partial in self._partial.items():
                os.replace(partial, final)
            return
        self._remove_partial()
        if exc_type is None:
            raise ValueError(f"{self.path}: wrote {self.written} samples, "
                             f"expected {self.n_samples}")


# The JSON value types a dataclass field takes, by its annotation (true is no number).
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "bool": (bool,)}


def _from_json(cls, doc, where, what):
    """`cls(**doc)` for a JSON object of cls's fields of their annotated types."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: {what} must be a JSON object, got {doc!r}")
    types = {field.name: field.type for field in fields(cls)}
    for key, value in doc.items():
        if key not in types:
            raise FormatError(f"{where}: unknown {what} field '{key}'")
        if type(value) not in _JSON_TYPES[types[key]]:
            raise FormatError(f"{where}: {what} field '{key}' is not {types[key]}: {value!r}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:  # a required field missing, a value out of range
        raise FormatError(f"{where}: {what}: {exc}") from exc


def _read_json(path, what):
    """A JSON file's document; text that is not JSON is a FormatError naming the file."""
    with open(str(path), encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {what} is not valid JSON: {exc}") from exc


def read_meta(path) -> CaptureMeta:
    """A capture's sidecar: JSON of CaptureMeta's fields, `format` and `version` 1."""
    where = sidecar_path(path)
    raw = _read_json(where, "capture sidecar")
    if isinstance(raw, dict):
        raw = {key: value for key, value in raw.items() if key != "format"}
        version = raw.pop("version", 1)
        if version != 1:
            raise UnsupportedVersionError(f"capture sidecar version {version} not supported")
    return _from_json(CaptureMeta, raw, where, "capture sidecar")


def capture_length(path, meta: CaptureMeta) -> int:
    """Samples in a raw IQ payload: its size in whole I,Q pairs of the
    declared format. Trailing bytes short of a pair are a FormatError."""
    pair = 2 * np.dtype(_SAMPLE_DTYPES[meta.sample_format]).itemsize
    size = os.path.getsize(str(path))
    if size % pair:
        raise FormatError(f"{path}: {size} bytes is not a whole number of "
                          f"{meta.sample_format} I,Q pairs; trailing data at byte "
                          f"offset {size - size % pair}")
    return size // pair


def read_iq(path, meta: CaptureMeta | None = None, offset_samples: int = 0,
            count: int | None = None) -> IqStream:
    """Decode interleaved I,Q into an IqStream.

    Integer formats are scaled to [-1, 1) by 2^(bits-1). `offset_samples`
    and `count` window the read so multi-GB captures never load whole.
    """
    if meta is None:
        meta = read_meta(path)
    if offset_samples < 0:
        raise ValueError(f"offset_samples must be >= 0, got {offset_samples}")
    if count is not None and count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    width = np.dtype(_SAMPLE_DTYPES[meta.sample_format]).itemsize
    total = capture_length(path, meta)
    if offset_samples > total:
        raise ValueError(f"offset {offset_samples} beyond capture of {total} samples")
    n_read = total - offset_samples if count is None else min(count, total - offset_samples)

    # Decoded chunk by chunk straight into one complex64 array: int8/int16
    # values and their scaling by a power of two are exact in float32.
    samples = np.empty(n_read, dtype=np.complex64)
    with open(str(path), "rb") as f:
        f.seek(offset_samples * 2 * width)
        if meta.dtype == np.float32 and not meta.iq_swap:
            # Native float32 I,Q pairs are complex64 bytes as they stand.
            if f.readinto(samples.view(np.uint8)) != samples.nbytes:
                raise FormatError(f"{path}: payload ended before sample "
                                  f"{offset_samples + n_read}")
        else:
            first = int(meta.iq_swap)  # where I sits in each pair
            for j0 in range(0, n_read, _CHUNK):
                part = samples[j0:j0 + _CHUNK]
                raw = np.fromfile(f, dtype=meta.dtype, count=2 * len(part))
                if len(raw) != 2 * len(part):
                    raise FormatError(f"{path}: payload ended before sample "
                                      f"{offset_samples + n_read}")
                part.real, part.imag = raw[first::2], raw[1 - first::2]
                if meta.sample_format != "float32":
                    part /= np.float32(1 << (8 * width - 1))
    return IqStream(samples, meta.sample_rate,
                    t0=meta.t0 + offset_samples / meta.sample_rate)


def iq_blocks(path, meta: CaptureMeta):
    """Yield a capture as consecutive IqStream blocks of BLOCK_SAMPLES samples
    (the last one shorter), each decoded by read_iq when it is asked for."""
    for offset in range(0, capture_length(path, meta), BLOCK_SAMPLES):
        yield read_iq(path, meta, offset_samples=offset, count=BLOCK_SAMPLES)


_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}


def load_label_runs(path, n_samples: int) -> list:
    """Read a labels .npy file, one uint8 code of LABEL_NAMES per sample of
    an n_samples capture, as the (start, stop, code) runs of sample indices
    that CaptureWriter writes.

    The file is checked and run-length encoded _CHUNK entries at a time.
    Any other shape, type or code is a ValueError naming the file.
    """
    with open(str(path), "rb") as f:
        try:
            version = np.lib.format.read_magic(f)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"unsupported .npy format version {version}")
            shape, _, dtype = _NPY_HEADER_READERS[version](f)
            if dtype.hasobject:
                raise ValueError(f"{dtype} entries are Python objects, not label codes")
        except ValueError as exc:
            raise ValueError(f"{path}: not a labels .npy array: {exc}") from exc
        if dtype != np.uint8 or shape != (n_samples,):
            raise ValueError(f"{path}: labels must be a 1-D uint8 array of {n_samples} "
                             f"entries, one per capture sample; got {dtype} "
                             f"of shape {shape}")
        top = max(LABEL_NAMES)  # the codes are 0..top
        runs, unknown = [], set()
        for i0 in range(0, n_samples, _CHUNK):
            want = min(_CHUNK, n_samples - i0)
            chunk = np.fromfile(f, dtype=np.uint8, count=want)
            if len(chunk) < want:
                raise ValueError(f"{path}: not a labels .npy array: the file ends after "
                                 f"{i0 + len(chunk)} of {n_samples} entries")
            unknown.update(np.unique(chunk[chunk > top]).tolist())
            edges = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist(), len(chunk)]
            for a, b in zip(edges, edges[1:]):
                code = int(chunk[a])
                if runs and runs[-1][2] == code:  # a run that goes on across chunks
                    runs[-1] = (runs[-1][0], i0 + b, code)
                else:
                    runs.append((i0 + a, i0 + b, code))
    if unknown:
        raise ValueError(f"{path}: unknown label codes {sorted(unknown)}"
                         f"; expected codes of {LABEL_NAMES}")
    return runs


# --------------------------------------------------------------------------
# Dataset manifests (one per capture, mirroring the genuine/spoofed tables)

@dataclass(frozen=True)
class DatasetManifest:
    id: str
    role: str  # "genuine" | "spoofed"
    capture_path: str = ""
    scenario_path: str = ""
    spoofing_type: str = ""  # e.g. "time", "position", "both"
    threat_model: str = ""  # "spoofing" | "replay"
    power_status: str = ""  # "over-powered", "matched-powered", ...
    multipath: str = ""  # "yes" | "no"
    duration_s: float = 0.0
    location: str = ""

    def __post_init__(self):
        if self.role not in ("genuine", "spoofed"):
            raise ValueError(f"role must be 'genuine' or 'spoofed', got {self.role!r}")


def save_manifest(manifest: DatasetManifest, path) -> None:
    _write_json(path, {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
                       **asdict(manifest)})


# --------------------------------------------------------------------------
# Detector profile files

def save_model(profile: DetectorProfile, path,
               window: FeatureWindowConfig | None = None,
               provenance: dict | None = None) -> None:
    """Serialize a trained profile; numeric fields round-trip bit-exactly."""
    _write_json(path, {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "k": profile.model.k,
        "mu": profile.model.mu.tolist(),
        "sigma": profile.model.sigma.flatten().tolist(),  # row-major
        "log_threshold": profile.log_threshold,
        "n_avg": profile.n_avg,
        "trained_on": list(profile.trained_on),
        "train_eer": profile.train_eer,
        "threshold_method": profile.threshold_method,
        "window": asdict(window) if window is not None else asdict(FeatureWindowConfig()),
        "provenance": provenance or {},
    })


def _read_profile(path) -> dict:
    doc = _read_json(path, "profile")
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise UnsupportedVersionError(
            f"{path}: profile version {doc.get('version')} not supported "
            f"(expected {MODEL_VERSION})")
    return doc


def load_model(path) -> DetectorProfile:
    doc = _read_profile(path)
    for key in ("k", "mu", "sigma", "log_threshold", "n_avg"):
        if key not in doc:
            raise ValueError(f"{path}: profile missing required field '{key}'")
    k = int(doc["k"])
    sigma = np.asarray(doc["sigma"], dtype=np.float64).reshape(k, k)
    try:
        return DetectorProfile(model=from_moments(doc["mu"], sigma),
                               log_threshold=float(doc["log_threshold"]),
                               n_avg=int(doc["n_avg"]),
                               trained_on=tuple(doc.get("trained_on", ())),
                               train_eer=float(doc.get("train_eer", "nan")),
                               threshold_method=doc.get("threshold_method", "eer"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_window_config(path) -> FeatureWindowConfig:
    return _from_json(FeatureWindowConfig, _read_profile(path).get("window", {}), path,
                      "profile window")


# --------------------------------------------------------------------------
# CSV interchange (epochs -> features -> decisions -> reports). csv writes a
# Python float by its repr, so every float round-trips exactly.

def _write_csv(path, header, rows) -> None:
    with open(str(path), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_table(path, header, kind, dtype) -> np.ndarray:
    """Check a CSV's header, then parse its rows as `dtype` records in one
    np.loadtxt pass; a wrong field count or a bad cell is a ValueError."""
    with open(str(path), newline="", encoding="utf-8") as f, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # header only
        found = next(csv.reader(f), None)
        if found != header:
            raise ValueError(f"{path}: unexpected {kind} CSV header {found}")
        try:
            return np.loadtxt(f, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed {kind} CSV: {exc}") from exc


EPOCH_CSV_HEADER = ["t", "e_re", "e_im", "p_re", "p_im", "l_re", "l_im",
                    "cn0_est", "clt_est", "code_phase", "doppler"]


def write_epochs_csv(epochs, path) -> None:
    # A record is the CSV's columns as float64.
    columns = np.ascontiguousarray(epochs, dtype=EPOCH_DTYPE).view(np.float64)
    columns = columns.reshape(-1, len(EPOCH_CSV_HEADER))
    _write_csv(path, EPOCH_CSV_HEADER, (row.tolist() for row in columns))


def read_epochs_csv(path) -> np.recarray:
    # One float64 field per column: the bytes of EPOCH_DTYPE records.
    table = _read_table(path, EPOCH_CSV_HEADER, "epoch",
                        [(name, np.float64) for name in EPOCH_CSV_HEADER])
    return table.view(EPOCH_DTYPE).view(np.recarray)


FEATURE_CSV_HEADER = list(FEATURE_DTYPE.names)


def write_features_csv(features, path) -> None:
    # tolist() gives Python floats and ints.
    _write_csv(path, FEATURE_CSV_HEADER, np.asarray(features, dtype=FEATURE_DTYPE).tolist())


def read_features_csv(path) -> np.recarray:
    return _read_table(path, FEATURE_CSV_HEADER, "feature", FEATURE_DTYPE).view(np.recarray)


DECISION_CSV_HEADER = ["t_start", "t_end", "prn", "score_log", "decision", "label"]


def write_decisions_csv(decisions, path) -> None:
    _write_csv(path, DECISION_CSV_HEADER,
               ([float(d.t_start), float(d.t_end), d.prn, float(d.log_score), d.decision,
                 d.label] for d in decisions))


REPORT_CSV_HEADER = ["dataset", "n_avg", "fpr", "fnr", "eer", "threshold_log",
                     "tp", "fp", "tn", "fn"]


def write_reports_csv(reports, path, names) -> None:
    _write_csv(path, REPORT_CSV_HEADER,
               ([name, r.n_avg, float(r.fpr), float(r.fnr), float(r.eer), float(r.threshold),
                 *r.counts] for name, r in zip(names, reports)))
