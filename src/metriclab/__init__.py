"""Numerical laboratory for similarity-weighted triplet and contrastive losses.

The package splits into thin layers: core containers and kernels, batch
enumeration, the loss family with hand-derived gradients, numerical oracles
that double-check those gradients, a von Mises-Fisher data generator, a
small SGD trainer, retrieval metrics, and a CLI tying it together.
"""

from .analysis import (
    HessianReport,
    RobustnessProbe,
    batch_gradcheck,
    dynamic_margin,
    finite_diff_grad,
    numeric_hessian_trace,
    robustness_gap,
    sample_gradcheck_batch,
    simce_trace_closed,
    triplet_trace_closed,
)
from .batching import (
    BatchSpec,
    PKIndex,
    PosPairSet,
    TripletIndexSet,
    enumerate_pos_pairs,
    enumerate_triplets,
    pk_index,
    sample_pk,
)
from .core import (
    EmbeddingBatch,
    SimMatrix,
    cosine_sim,
    euclidean_dist,
    read_sim_matrix_csv,
    similarity_matrix,
    write_sim_matrix_csv,
)
from .evaluation import (
    GalleryProbeSplit,
    GeometryReport,
    VarianceStats,
    build_geometry_report,
    rank1,
    snapshot_sim_matrix,
    uniformity,
    variance_ratio,
)
from .losses import (
    ClassifierHead,
    LossConfig,
    LossResult,
    ce_loss,
    combined_loss,
    m_simce_loss,
    s_triplet_loss,
    simce_loss,
    triplet_loss,
    weight_from_sim,
)
from .synth import (
    DatasetSpec,
    SynthDataset,
    VmfParams,
    estimate_kappa,
    gen_dataset,
    read_dataset_csv,
    sample_vmf,
    vmf_density,
    write_dataset_csv,
)
from .training import (
    ModelParams,
    OptimState,
    TrainConfig,
    TrainReport,
    cosine_lr,
    holdout_split,
    load_model,
    model_forward,
    reference_train_config,
    run_training,
    save_model,
    sgd_update,
    train,
)

__version__ = "0.1.0"
