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
from dataclasses import dataclass

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
    with std mean_scale); samples are mean + cluster_spread * N(0, I), class
    after class, all from one draw of the noise.
    """
    if num_classes < 1 or samples_per_class < 1 or input_dim < 1:
        raise ValueError("counts must be positive")
    if cluster_spread < 0:
        raise ValueError("cluster_spread must be >= 0")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, mean_scale, size=(num_classes, input_dim))
    x = rng.normal(0.0, 1.0, size=(num_classes, samples_per_class, input_dim))
    x *= cluster_spread
    x += means[:, None]
    y = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    return LabeledDataset(x.reshape(-1, input_dim), y, num_classes)


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
            try:
                feats, label = [float(v) for v in row[:d]], int(row[d])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in feats):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            xs.append(feats)
            if label < 0:
                raise ValueError(f"{path}:{lineno}: negative label")
            ys.append(label)
    if not xs:
        raise ValueError(f"{path}: no samples")
    y = np.asarray(ys, dtype=np.int64)
    return LabeledDataset(np.asarray(xs, dtype=np.float64), y, int(y.max()) + 1)


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
        parts: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        labels = dataset.y[rest]
        for c in range(dataset.num_classes):
            idx_c = rest[labels == c]
            if len(idx_c) == 0:
                continue
            idx_c = rng.permutation(idx_c)
            props = rng.dirichlet([beta] * num_clients)
            cuts = (np.cumsum(props)[:-1] * len(idx_c)).astype(np.int64)
            for k, part in enumerate(np.split(idx_c, cuts)):
                parts[k].append(part)
        shares = [np.sort(np.concatenate(p)) if p else np.empty(0, np.int64) for p in parts]
        if all(len(share) > 0 for share in shares):
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
        # client index arrays are sorted and unique (both partitioners sort
        # disjoint parts), so this is setdiff1d without its np.unique, whose
        # first call imports numpy.ma
        member_src = member_src[np.isin(member_src, exclude, assume_unique=True, invert=True)]
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


def validation_carve(
    indices: np.ndarray, val_fraction: float, seed: int, client_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (training, validation) indices of client `client_id`'s
    `indices`: validation takes the first ceil(val_fraction * |D_k|)
    positions of the client's seeded shuffle, leaving at least one
    training sample."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    from .rng import stream

    order = stream(seed, "valsplit", client_id).permutation(len(indices))
    n_val = int(np.ceil(val_fraction * len(indices)))
    if n_val >= len(indices):
        n_val = max(0, len(indices) - 1)  # keep at least one training sample
    return np.sort(indices[order[n_val:]]), np.sort(indices[order[:n_val]])


def make_client_datasets(
    dataset: LabeledDataset,
    plan: PartitionPlan,
    val_fraction: float,
    seed: int,
) -> list[ClientDataset]:
    """Build per-client datasets with a seeded validation carve.

    The carve takes the first ceil(val_fraction * |D_k|) positions of a
    seeded shuffle (`validation_carve`) and is applied uniformly to every
    client so that defended and undefended runs train on identical sample
    sets.
    """
    clients = []
    for k, idx in enumerate(plan.client_indices):
        train_idx, val_idx = validation_carve(idx, val_fraction, seed, k)
        clients.append(
            ClientDataset(
                client_id=k,
                train_X=dataset.X[train_idx],
                train_y=dataset.y[train_idx],
                val_X=dataset.X[val_idx],
                val_y=dataset.y[val_idx],
                train_indices=train_idx,
                val_indices=val_idx,
            )
        )
    return clients
