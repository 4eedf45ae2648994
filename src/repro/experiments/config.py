"""Experiment hyper-parameters (Sec. VI-C2 settings in one place)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.feature import BACKENDS


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by every method in one experiment run.

    Defaults follow Sec. VI-C2 except ``epochs``: the paper trains the
    neural machine for 2000 epochs, which we scale down to keep the full
    7-dataset harness laptop-runnable (the loss plateaus far earlier with
    Adam).  Use :meth:`paper_settings` for the faithful configuration.

    Attributes:
        k: structure nodes per subgraph (paper: 10).
        theta: influence damping factor (paper: 0.5).
        epochs / learning_rate / batch_size: neural-machine training.
        train_fraction: positive-sample train share (paper: 0.7).
        negative_ratio: negatives per positive (paper: 1.0).
        exclude_history_negatives: negatives must have no historical link.
        max_positives: optional cap on positive pairs per dataset (speed).
        nmf_rank / nmf_iterations: NMF baseline factorisation.
        katz_beta: Katz damping (paper: 0.001).
        rw_steps: local-random-walk steps.
        n_jobs: worker processes for SSF feature extraction (1 = in
            process; extraction is deterministic either way).  Needs the
            csr backend when above 1.
        max_retries: pool rounds re-dispatching failed extraction chunks
            before the in-parent sequential fallback (see
            docs/ROBUSTNESS.md; results stay bit-identical either way).
        chunk_timeout: seconds a pool may stay silent before its missing
            chunks count as hung/lost and are retried; ``None`` waits
            forever (disables dead-worker detection).
        backend: SSF extraction substrate — ``"csr"`` (frozen array
            snapshot, the default) or ``"dict"`` (the faithful reference,
            in process only); the features are bit-identical.
        seed: master seed (split, negatives, model init).
    """

    k: int = 10
    theta: float = 0.5
    epochs: int = 120
    learning_rate: float = 1e-3
    batch_size: int = 10
    train_fraction: float = 0.7
    negative_ratio: float = 1.0
    exclude_history_negatives: bool = True
    max_positives: "int | None" = None
    nmf_rank: int = 32
    nmf_iterations: int = 40
    katz_beta: float = 0.001
    rw_steps: int = 3
    n_jobs: int = 1
    max_retries: int = 2
    chunk_timeout: "float | None" = 300.0
    backend: str = "csr"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive or None, got {self.chunk_timeout}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "dict" and self.n_jobs > 1:
            raise ValueError(
                f"backend='dict' runs in process only, got n_jobs={self.n_jobs}; "
                "use backend='csr' for worker processes"
            )

    @classmethod
    def paper_settings(cls) -> "ExperimentConfig":
        """The exact Sec. VI-C2 hyper-parameters (2000 epochs)."""
        return cls(epochs=2000)

    def with_k(self, k: int) -> "ExperimentConfig":
        """Copy with a different K (used by the Fig. 7 sweep)."""
        return replace(self, k=k)

    def fast(self) -> "ExperimentConfig":
        """A cheap variant for tests: few epochs, capped sample counts."""
        return replace(self, epochs=30, max_positives=60, nmf_iterations=15)
