"""Synthetic embedding datasets and precomputed-embedding ingestion.

Synthetic data mimics the geometry the simulator studies: class prototypes
are drawn uniformly on the unit sphere, samples are unit-normalized noisy
copies of their class prototype, and the text-side prototypes (the class
name embedding analogue) are lightly perturbed copies of the image
prototypes. Each domain applies a fixed seeded orthogonal rotation and
mean shift to its samples before normalization, giving controlled
covariate shift between domains.

Precomputed embeddings can be ingested from two formats:

- binary: sample files with magic ``FEMB`` (u32 version = 1, u32 dim,
  u64 count, then per record u32 label, u32 domain, dim little-endian f32)
  and a prototype file with magic ``FPRO`` (u32 dim, u32 classes, then
  classes x dim little-endian f32)
- CSV: sample files with header ``label,domain,f0..f{d-1}`` and a prototype
  file with header ``label,f0..f{d-1}`` (one row per class, in label order)

Loaded rows are re-normalized to unit length, matching the synthetic path.
Both sources return a ``LabeledDataset`` whose rows come in blocks from
``rows()``: a synthetic (domain, class) block is drawn only then, and a
loaded file's rows are views into its one normalized matrix.
A file whose content breaks its layout (a bad header or record, a binary
header that claims more or fewer bytes than the file holds, an unparsable
or negative label, no data rows or zero records, a non-finite value, a row
whose norm is zero or overflows) raises ``FormatError`` naming the file.
A binary header's claim is checked against the file's size before
anything is allocated.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .numerics import RngStream, l2_normalize_rows
from .partition import LabeledDataset

# fixed shape of the per-domain covariate shift, relative to noise sigma
DOMAIN_ROTATION_ANGLE = 0.2
DOMAIN_SHIFT_SCALE = 0.3
TEXT_PERTURBATION_SCALE = 0.1
FILE_BLOCK_ROWS = 1024  # rows per block of a loaded embedding file


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset."""

    class_count: int = 20
    dim: int = 64
    samples_per_class: int = 100  # per domain
    noise_sigma: float = 0.2
    domain_count: int = 1
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.class_count < 1:
            raise ConfigError(f"class_count must be >= 1, got {self.class_count}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if not self.noise_sigma > 0:
            raise ConfigError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if self.domain_count < 1:
            raise ConfigError(f"domain_count must be >= 1, got {self.domain_count}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def _domain_rotation(dim: int, rng: RngStream) -> list:
    """A fixed mild rotation as a list of (i, j, angle) Givens planes."""
    planes = []
    angles = rng.normal(dim // 2, scale=DOMAIN_ROTATION_ANGLE)
    for k in range(dim // 2):
        i = int(rng.u64(1)[0] % np.uint64(dim))
        j = int(rng.u64(1)[0] % np.uint64(dim - 1))
        if j >= i:
            j += 1
        planes.append((i, j, float(angles[k])))
    return planes


def _rotate_rows(x: np.ndarray, planes: list) -> None:
    """Rotate the rows of ``x`` in place by each (i, j, angle) plane in turn."""
    for i, j, angle in planes:
        c, s = np.cos(angle), np.sin(angle)
        xi, xj = x[:, i].copy(), x[:, j].copy()
        x[:, i] = c * xi - s * xj
        x[:, j] = s * xi + c * xj


def generate_synthetic(spec: SyntheticSpec, rng: RngStream) -> tuple:
    """Build a labeled dataset plus its text-side prototype matrix.

    Returns ``(LabeledDataset, text_prototypes)``. The dataset is exactly
    label-balanced (samples_per_class per class per domain) and the
    train/test split is stratified within every class-domain block. Its
    rows are made only when ``rows()`` is iterated: one block per (domain,
    class), in that order, each drawn from its own streams.
    """
    c, d = spec.class_count, spec.dim
    image_protos = l2_normalize_rows(rng.child("protos").normal(c * d).reshape(c, d))
    text_noise = rng.child("text-protos").normal(c * d).reshape(c, d)
    text_protos = l2_normalize_rows(
        image_protos + TEXT_PERTURBATION_SCALE * spec.noise_sigma * text_noise
    )

    n = spec.samples_per_class
    n_train = int(round(spec.train_fraction * n))
    n_train = min(max(n_train, 1), n - 1) if n > 1 else 1

    def rows():
        for dom in range(spec.domain_count):
            dom_rng = rng.child("domain", dom)
            planes = _domain_rotation(d, dom_rng.child("rotation"))
            shift = dom_rng.child("shift").normal(d, scale=DOMAIN_SHIFT_SCALE * spec.noise_sigma)
            for cls in range(c):
                # the prototype plus scaled noise, rotated, shifted and normalized, all in one array
                block = rng.child("samples", dom, cls).normal(n * d).reshape(n, d)
                block *= spec.noise_sigma
                block += image_protos[cls]
                _rotate_rows(block, planes)
                block += shift
                yield (dom * c + cls) * n, l2_normalize_rows(block, out=block)

    data = LabeledDataset(
        labels=np.tile(np.repeat(np.arange(c, dtype=np.int64), n), spec.domain_count),
        domains=np.repeat(np.arange(spec.domain_count, dtype=np.int64), c * n),
        class_count=c,
        is_train=np.tile(np.arange(n) < n_train, spec.domain_count * c),
        dim=d,
        rows=rows,
    )
    return data, text_protos


# ---------------------------------------------------------------------------
# binary FEMB / FPRO formats
# ---------------------------------------------------------------------------

_FEMB_MAGIC = b"FEMB"
_FPRO_MAGIC = b"FPRO"
_FEMB_VERSION = 1


def _read_exact(fh, count: int, path, what: str) -> bytes:
    offset = fh.tell()
    blob = fh.read(count)
    if len(blob) != count:
        raise FormatError(f"{path}: truncated {what} at byte {offset} (wanted {count} bytes)")
    return blob


def _read_payload(fh, count: int, path, what: str) -> bytes:
    """The rest of the file, which must be exactly ``count`` bytes. The file's
    size is checked first, so a header's claim never sizes an allocation."""
    offset = fh.tell()
    held = os.fstat(fh.fileno()).st_size - offset
    if held < count:
        raise FormatError(f"{path}: truncated {what} at byte {offset + held} "
                          f"(the header claims {count} bytes from byte {offset})")
    if held > count:
        raise FormatError(f"{path}: {held - count} unexpected trailing bytes at byte {offset + count}")
    return _read_exact(fh, count, path, what)


def read_embeddings(path) -> tuple:
    """Parse one FEMB file into (embeddings, labels, domains)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != _FEMB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {_FEMB_MAGIC!r}")
        version, d, n = struct.unpack("<IIQ", _read_exact(fh, 16, path, "header"))
        if version != _FEMB_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        if d == 0:
            raise FormatError(f"{path}: zero dimension at byte 8")
        if n == 0:
            raise FormatError(f"{path}: zero records (count at byte 12)")
        payload = _read_payload(fh, n * (8 + 4 * d), path, "records")
    records = np.frombuffer(payload, dtype=[("label", "<u4"), ("domain", "<u4"), ("x", "<f4", (d,))])
    return records["x"].astype(np.float64), records["label"].astype(np.int64), records["domain"].astype(np.int64)


def read_prototypes(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != _FPRO_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {_FPRO_MAGIC!r}")
        d, c = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if d == 0 or c == 0:
            raise FormatError(f"{path}: zero dimension or class count at byte 4")
        payload = _read_payload(fh, 4 * d * c, path, "prototype payload")
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(c, d)


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


def _read_csv(path, keys: list, what: str) -> tuple:
    """Parse a CSV with header ``keys`` then ``f0..f{d-1}``.

    Returns the integer ``keys`` columns (n x len(keys), non-negative) and
    the n x d feature rows; a file without data rows is rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        k, d = len(keys), len(header) - len(keys)
        if d < 1 or header != keys + [f"f{i}" for i in range(d)]:
            raise FormatError(f"{path}: header must be '{','.join(keys)},f0,...,f{{d-1}}'")
        ints, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != k + d:
                raise FormatError(f"{path}: line {lineno} has {len(row)} fields, expected {k + d}")
            try:
                ints.append([int(v) for v in row[:k]])
                rows.append([float(v) for v in row[k:]])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            if min(ints[-1]) < 0:
                raise FormatError(f"{path}: line {lineno}: {' and '.join(keys)} must be non-negative")
    if not rows:
        raise FormatError(f"{path}: no {what} rows after the header")
    return np.asarray(ints, dtype=np.int64), np.asarray(rows, dtype=np.float64)


def _read_embedding_csv(path) -> tuple:
    ints, rows = _read_csv(path, ["label", "domain"], "sample")
    return rows, ints[:, 0], ints[:, 1]


def _read_prototype_csv(path) -> np.ndarray:
    labels, rows = _read_csv(path, ["label"], "prototype")
    out_of_order = np.flatnonzero(labels[:, 0] != np.arange(len(rows)))
    if out_of_order.size:
        raise FormatError(f"{path}: line {out_of_order[0] + 2}: prototype rows must be in label order")
    return rows


def load_embeddings(train_path, test_path, prototypes_path) -> tuple:
    """Ingest precomputed embeddings; returns (LabeledDataset, prototypes).

    Paths ending in ``.csv`` use the CSV layout, anything else the binary
    layout. Sample rows and prototypes are re-normalized to unit length,
    and prototype count and dimension are checked against the data.
    """
    def read_samples(path):
        if str(path).endswith(".csv"):
            return _read_embedding_csv(path)
        return read_embeddings(path)

    tr_x, tr_y, tr_dom = read_samples(train_path)
    te_x, te_y, te_dom = read_samples(test_path)
    if tr_x.shape[1] != te_x.shape[1]:
        raise FormatError(
            f"train dimension {tr_x.shape[1]} does not match test dimension {te_x.shape[1]}"
        )
    if str(prototypes_path).endswith(".csv"):
        protos = _read_prototype_csv(prototypes_path)
    else:
        protos = read_prototypes(prototypes_path)
    sample_norms = []
    for path, values in ((train_path, tr_x), (test_path, te_x), (prototypes_path, protos)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise FormatError(f"{path}: non-finite value in row {bad[0]}")
        # a zero norm, or one that overflows, cannot be normalized to unit length
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(values, axis=1)
        bad = np.flatnonzero(~((norms > 0) & np.isfinite(norms)))
        if bad.size:
            raise FormatError(f"{path}: row {bad[0]} has norm {norms[bad[0]]}, which cannot be normalized")
        sample_norms.append(norms)
    if protos.shape[1] != tr_x.shape[1]:
        raise FormatError(
            f"prototype dimension {protos.shape[1]} does not match sample dimension {tr_x.shape[1]}"
        )
    class_count = int(max(tr_y.max(), te_y.max())) + 1
    if protos.shape[0] != class_count:
        raise FormatError(
            f"prototype file has {protos.shape[0]} classes but labels imply {class_count}"
        )
    # each file's rows divided in place by the norms checked above (a row's own), then
    # handed out as views of FILE_BLOCK_ROWS rows, so a block's copies stay small
    for values, norms in zip((tr_x, te_x), sample_norms):
        values /= norms[:, None]
    data = LabeledDataset(
        labels=np.concatenate([tr_y, te_y]),
        domains=np.concatenate([tr_dom, te_dom]),
        class_count=class_count,
        is_train=np.concatenate([np.ones(len(tr_y), bool), np.zeros(len(te_y), bool)]),
        dim=tr_x.shape[1],
        rows=lambda: ((start + i, x[i : i + FILE_BLOCK_ROWS]) for start, x in ((0, tr_x), (len(tr_x), te_x))
                      for i in range(0, len(x), FILE_BLOCK_ROWS)),
    )
    return data, l2_normalize_rows(protos)
