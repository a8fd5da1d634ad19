"""Graph-augmented collaborative filtering from multimodal item content.

The package mines item-item affinity graphs from content features (one per
modality), lets a learnable transform reshape them during training, and
propagates ID embeddings over the mixed graph to enhance a matrix
factorization or light graph convolution backend trained with a pairwise
ranking loss.
"""

from .data import (
    InteractionDataset,
    ModalityFeatures,
    Split,
    build_bipartite_graph,
    load_features,
    load_interactions,
    make_dataset,
    sample_negative,
    split_cold,
    split_warm,
    write_features,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    EvaluationError,
    GradientError,
    LatticeError,
)
from .evaluation import EvalReport, evaluate, ndcg_at_k, precision_at_k, rank_items, recall_at_k
from .graph import (
    SparseGraph,
    aggregate_modalities,
    build_initial_graph,
    fuse_skip,
    normalize_sym,
    topk_sparsify,
    transform_features,
)
from .model import (
    ForwardOutput,
    ModelConfig,
    ModelInputs,
    ParameterSet,
    build_inputs,
    forward,
    load_checkpoint,
    parameter_shapes,
    propagate_item_graph,
    save_checkpoint,
)
from .synthetic import clustered_dataset, write_clustered_dataset
from .training import (
    FitResult,
    TrainConfig,
    adam_step,
    bpr_loss,
    compute_gradients,
    fit,
    init_parameters,
    l2_penalty,
    xavier_init,
)

__version__ = "0.1.0"
