"""Writers and readers that only the tests need.

The embedding-file writers produce the FEMB, FPRO and CSV layouts that
``fedcalib.datagen`` documents and reads; ``plan_from_json`` parses what
``PartitionPlan.to_json`` writes; ``results_canonical_bytes`` serializes a
results dictionary without its volatile ``meta`` section, the bytes the
determinism contract compares; ``model_array_bytes`` snapshots every array
a model holds; ``count_forwards`` records what a model forwards;
``split_probs`` is a round's evaluation forward as the runner makes it;
``scalars`` is a report's metrics as the per-client rows of results hold them;
``dataset_from_rows`` makes a ``LabeledDataset`` whose rows are one given
matrix, and ``dataset_rows`` writes a dataset's row blocks into one matrix
in dataset order.
"""

import csv
import json
import struct

import numpy as np

from fedcalib.federation import split_logits
from fedcalib.numerics import softmax_rows
from fedcalib.partition import LabeledDataset, PartitionPlan


def dataset_from_rows(x, labels, domains, class_count, is_train) -> LabeledDataset:
    """A dataset whose rows are the matrix ``x``, as one block."""
    x = np.asarray(x, dtype=np.float64)
    return LabeledDataset(labels, domains, class_count, is_train, x.shape[1], lambda: iter([(0, x)]))


def dataset_rows(data: LabeledDataset) -> np.ndarray:
    """The n x d matrix of ``data``'s rows, each block written at its start index."""
    x = np.full((data.sample_count, data.dim), np.nan)
    for start, block in data.rows():
        x[start : start + len(block)] = block
    return x


def write_embeddings(path, embeddings, labels, domains) -> None:
    """FEMB: magic, u32 version 1, u32 dim, u64 count, then per record
    u32 label, u32 domain and dim little-endian f32."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    n, d = embeddings.shape
    with open(path, "wb") as fh:
        fh.write(b"FEMB")
        fh.write(struct.pack("<IIQ", 1, d, n))
        for i in range(n):
            fh.write(struct.pack("<II", int(labels[i]), int(domains[i])))
            fh.write(embeddings[i].astype("<f4").tobytes())


def write_prototypes(path, prototypes) -> None:
    """FPRO: magic, u32 dim, u32 classes, then classes x dim little-endian f32."""
    prototypes = np.asarray(prototypes, dtype=np.float32)
    c, d = prototypes.shape
    with open(path, "wb") as fh:
        fh.write(b"FPRO")
        fh.write(struct.pack("<II", d, c))
        fh.write(prototypes.astype("<f4").tobytes())


def write_embedding_csv(path, embeddings, labels, domains) -> None:
    """Sample CSV with header ``label,domain,f0..f{d-1}``."""
    d = embeddings.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "domain"] + [f"f{i}" for i in range(d)])
        for i in range(embeddings.shape[0]):
            writer.writerow([int(labels[i]), int(domains[i])] + [f"{v:.8g}" for v in embeddings[i]])


def plan_from_json(text: str) -> PartitionPlan:
    """The plan that ``PartitionPlan.to_json`` serialized to ``text``."""
    payload = json.loads(text)
    return PartitionPlan(
        train_indices=[np.asarray(ix, dtype=np.int64) for ix in payload["train_indices"]],
        test_indices=[np.asarray(ix, dtype=np.int64) for ix in payload["test_indices"]],
        histograms=np.asarray(payload["histograms"], dtype=np.int64),
        metadata=payload["metadata"],
        shared_test=np.asarray(payload["shared_test_indices"], dtype=np.int64),
    )


def own_rows(split, k: int) -> tuple:
    """Client ``k``'s own rows ``(x, y)`` of a ``RowSplit``, slices of the split."""
    start = int(split.sizes[:k].sum())
    rows = slice(start, start + int(split.sizes[k]))
    return split.x[rows], split.y[rows]


def results_canonical_bytes(results: dict) -> bytes:
    """Serialization with volatile metadata stripped; the determinism surface."""
    stripped = {k: v for k, v in results.items() if k != "meta"}
    return json.dumps(stripped, sort_keys=True, indent=2).encode()


def model_array_bytes(model) -> dict:
    """Bytes of every array a model holds, directly or inside its attributes'
    lists and objects, keyed by attribute path; the per-step cache is skipped."""
    found = {}

    def walk(path, value):
        if isinstance(value, np.ndarray):
            found[path] = value.tobytes()
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{path}.{i}", item)
        elif hasattr(value, "__dict__"):
            for name, item in vars(value).items():
                walk(f"{path}.{name}", item)

    for name, value in vars(model).items():
        if name != "_cache":
            walk(name, value)
    return found


def count_forwards(model, arrays=None, clients=None, trains=None):
    """Wrap ``model.forward`` on the instance; returns the list of row counts per call.
    With ``arrays``, every forwarded array is appended to it; with ``clients``,
    every call's number of parameter rows (1 for a vector); with ``trains``,
    every call's ``train`` flag."""
    calls = []
    original = model.forward

    def counted(x, params, *args, **kwargs):
        calls.append(len(x))
        if arrays is not None:
            arrays.append(x)
        if clients is not None:
            clients.append(len(params) if np.ndim(params) == 2 else 1)
        if trains is not None:
            trains.append(bool(args[0] if args else kwargs.get("train", False)))
        return original(x, params, *args, **kwargs)

    model.forward = counted
    return calls


def split_probs(model, vector, split):
    """Probabilities under ``vector`` of every row of ``split``, one forward per block."""
    return softmax_rows(split_logits(model, vector, split))


def scalars(report) -> dict:
    """The accuracy and the five calibration metrics of a ``CalibrationReport``."""
    return {key: getattr(report, key) for key in ("accuracy", "ece", "mce", "ace", "brier", "nll")}
