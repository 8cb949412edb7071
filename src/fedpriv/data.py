"""Dataset generation/loading, client partitioning, and evaluation pools.

Membership evaluation distinguishes three disjoint pools: members (samples
of the target client), non-members held by other clients inside the
federation (IFL), and non-members entirely outside it (OFL). The OFL pool
is carved from the dataset before client splitting so its distribution
matches the global one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LabeledDataset:
    """Feature matrix (n, d) plus integer class ids (n,)."""

    X: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("class ids out of range")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]


@dataclass
class PartitionPlan:
    """Disjoint per-client index lists plus a held-out OFL index pool."""

    client_indices: list[np.ndarray]
    ofl_indices: np.ndarray

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)


@dataclass
class EvalPools:
    """Pairwise-disjoint sample id pools for membership evaluation."""

    member_ids: np.ndarray
    ifl_ids: np.ndarray
    ofl_ids: np.ndarray


@dataclass
class ClientDataset:
    """A client's local data with its validation slice carved out.

    train_X/train_y are the samples used for local training; the validation
    slice is excluded from all training. Global sample indices (into the
    federation training set) are kept so eval pools can reference them.
    """

    client_id: int
    train_X: np.ndarray
    train_y: np.ndarray
    val_X: np.ndarray
    val_y: np.ndarray
    train_indices: np.ndarray
    val_indices: np.ndarray
    class_hist: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def num_samples(self) -> int:
        """Original local dataset size (training + validation)."""
        return len(self.train_indices) + len(self.val_indices)


def generate_synthetic(
    num_classes: int,
    samples_per_class: int,
    input_dim: int,
    cluster_spread: float,
    seed: int,
    mean_scale: float = 4.0,
) -> LabeledDataset:
    """Gaussian class clusters with seeded, reproducible draws.

    Class means are placed deterministically from the seed (i.i.d. normal
    with std mean_scale); samples are mean + cluster_spread * N(0, I).
    """
    if num_classes < 1 or samples_per_class < 1 or input_dim < 1:
        raise ValueError("counts must be positive")
    if cluster_spread < 0:
        raise ValueError("cluster_spread must be >= 0")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, mean_scale, size=(num_classes, input_dim))
    xs = []
    ys = []
    for c in range(num_classes):
        noise = rng.normal(0.0, 1.0, size=(samples_per_class, input_dim))
        xs.append(means[c] + cluster_spread * noise)
        ys.append(np.full(samples_per_class, c, dtype=np.int64))
    return LabeledDataset(np.vstack(xs), np.concatenate(ys), num_classes)


def load_csv(path: str) -> LabeledDataset:
    """Load a dataset from CSV with header f0,...,f{d-1},label."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        d = len(header) - 1
        expected = [f"f{i}" for i in range(d)] + ["label"]
        if header != expected:
            raise ValueError(f"{path}: bad header {header!r}, expected {expected!r}")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            feats = [float(v) for v in row[:d]]
            if not all(math.isfinite(v) for v in feats):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            xs.append(feats)
            label = int(row[d])
            if label < 0:
                raise ValueError(f"{path}:{lineno}: negative label")
            ys.append(label)
    if not xs:
        raise ValueError(f"{path}: no samples")
    y = np.asarray(ys, dtype=np.int64)
    return LabeledDataset(np.asarray(xs, dtype=np.float64), y, int(y.max()) + 1)


def save_csv(dataset: LabeledDataset, path: str) -> None:
    """Write a dataset in the CSV format accepted by load_csv."""
    d = dataset.input_dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for row, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def split_train_test(
    dataset: LabeledDataset, test_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle split; the test slice is shared by all clients."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_test = int(round(test_fraction * len(dataset)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (
        LabeledDataset(dataset.X[train_idx], dataset.y[train_idx], dataset.num_classes),
        LabeledDataset(dataset.X[test_idx], dataset.y[test_idx], dataset.num_classes),
    )


def _carve_ofl(n: int, ofl_fraction: float, rng: np.random.Generator):
    order = rng.permutation(n)
    n_ofl = int(round(ofl_fraction * n))
    return order[:n_ofl], order[n_ofl:]


def partition_iid(
    dataset: LabeledDataset, num_clients: int, ofl_fraction: float, seed: int
) -> PartitionPlan:
    """Even split across clients (sizes equal within 1); OFL pool held out first."""
    if num_clients < 2:
        raise ValueError("need at least 2 clients")
    if not 0.0 <= ofl_fraction < 1.0:
        raise ValueError("ofl_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    ofl, rest = _carve_ofl(len(dataset), ofl_fraction, rng)
    if len(rest) < num_clients:
        raise ValueError(f"{len(rest)} samples cannot cover {num_clients} clients")
    shares = [np.sort(part) for part in np.array_split(rest, num_clients)]
    return PartitionPlan(shares, np.sort(ofl))


def partition_dirichlet(
    dataset: LabeledDataset,
    num_clients: int,
    beta: float,
    ofl_fraction: float,
    seed: int,
    max_redraws: int = 100,
) -> PartitionPlan:
    """Non-IID split: per class, client proportions drawn from Dirichlet(beta).

    Smaller beta gives a more skewed allocation. If any client ends up empty
    the whole plan is redrawn with seed+1, up to max_redraws times.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if num_clients < 2:
        raise ValueError("need at least 2 clients")
    for attempt in range(max_redraws + 1):
        rng = np.random.default_rng(seed + attempt)
        ofl, rest = _carve_ofl(len(dataset), ofl_fraction, rng)
        buckets: list[list[int]] = [[] for _ in range(num_clients)]
        labels = dataset.y[rest]
        for c in range(dataset.num_classes):
            idx_c = rest[labels == c]
            if len(idx_c) == 0:
                continue
            idx_c = rng.permutation(idx_c)
            props = rng.dirichlet([beta] * num_clients)
            cuts = (np.cumsum(props)[:-1] * len(idx_c)).astype(np.int64)
            for k, part in enumerate(np.split(idx_c, cuts)):
                buckets[k].extend(part.tolist())
        if all(len(b) > 0 for b in buckets):
            shares = [np.sort(np.asarray(b, dtype=np.int64)) for b in buckets]
            return PartitionPlan(shares, np.sort(ofl))
    raise RuntimeError(f"no non-empty Dirichlet split after {max_redraws} redraws")


def build_eval_pools(
    plan: PartitionPlan,
    target_client: int,
    members_n: int,
    ifl_n: int,
    ofl_n: int,
    seed: int,
    exclude: np.ndarray | None = None,
) -> EvalPools:
    """Sample disjoint member / IFL / OFL pools.

    Members come from the target client (optionally minus `exclude`, e.g. its
    untrained validation indices); IFL samples are drawn equally from every
    other client with the remainder spread round-robin; OFL samples come
    from the held-out pool.
    """
    if not 0 <= target_client < plan.num_clients:
        raise ValueError("target_client out of range")
    if members_n < 0 or ifl_n < 0 or ofl_n < 0:
        raise ValueError("pool sizes must be >= 0")
    rng = np.random.default_rng(seed)

    member_src = plan.client_indices[target_client]
    if exclude is not None and len(exclude):
        member_src = np.setdiff1d(member_src, np.asarray(exclude), assume_unique=False)
    if members_n > len(member_src):
        raise ValueError(f"target client holds {len(member_src)} usable samples < {members_n}")
    members = np.sort(rng.choice(member_src, size=members_n, replace=False))

    others = [k for k in range(plan.num_clients) if k != target_client]
    if ifl_n > 0 and not others:
        raise ValueError("no other clients to contribute IFL samples")
    ifl_parts = []
    if others:
        base, rem = divmod(ifl_n, len(others))
        for pos, k in enumerate(others):
            want = base + (1 if pos < rem else 0)
            src = plan.client_indices[k]
            if want > len(src):
                raise ValueError(f"client {k} holds {len(src)} samples < {want} requested")
            if want:
                ifl_parts.append(rng.choice(src, size=want, replace=False))
    ifl = np.sort(np.concatenate(ifl_parts)) if ifl_parts else np.empty(0, dtype=np.int64)

    if ofl_n > len(plan.ofl_indices):
        raise ValueError(f"OFL pool holds {len(plan.ofl_indices)} samples < {ofl_n}")
    ofl = np.sort(rng.choice(plan.ofl_indices, size=ofl_n, replace=False))
    return EvalPools(members, ifl, ofl)


def make_client_datasets(
    dataset: LabeledDataset,
    plan: PartitionPlan,
    val_fraction: float,
    seed: int,
) -> list[ClientDataset]:
    """Build per-client datasets with a seeded validation carve.

    The carve takes the first ceil(val_fraction * |D_k|) positions of a
    seeded shuffle and is applied uniformly to every client so that defended
    and undefended runs train on identical sample sets.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    from .rng import stream

    clients = []
    for k, idx in enumerate(plan.client_indices):
        order = stream(seed, "valsplit", k).permutation(len(idx))
        n_val = int(np.ceil(val_fraction * len(idx)))
        if n_val >= len(idx):
            n_val = max(0, len(idx) - 1)  # keep at least one training sample
        val_idx = np.sort(idx[order[:n_val]])
        train_idx = np.sort(idx[order[n_val:]])
        hist = np.bincount(dataset.y[idx], minlength=dataset.num_classes)
        clients.append(
            ClientDataset(
                client_id=k,
                train_X=dataset.X[train_idx],
                train_y=dataset.y[train_idx],
                val_X=dataset.X[val_idx],
                val_y=dataset.y[val_idx],
                train_indices=train_idx,
                val_indices=val_idx,
                class_hist=hist,
            )
        )
    return clients
