"""fairpair: pairwise data reweighting for fair learning-to-rank.

Pre-processes pairwise training data by weighting item pairs so that an
arbitrary pairwise-trained ranking model satisfies a chosen group fairness
constraint, with evaluation and baseline machinery included.
"""

from .constraints import (
    ConstraintKind,
    GroupStats,
    compute_group_stats,
    compute_point_stats,
    pair_constraint_mask,
    point_constraint_mask,
)
from .data import (
    Dataset,
    PairSet,
    QueryGroup,
    SynthTruth,
    generate_synthetic,
    load_csv,
    make_pairs,
    save_csv,
    split_queries,
)
from .errors import FairpairError, ParseError, ValidationError
from .evaluation import EvalReport, auc, evaluate, fairness_score
from .model import LinearRankingModel, load_model, save_model, score_matrix
from .reweight import (
    Coefficients,
    DeltaMatrix,
    FairTrainConfig,
    expected_bias,
    fair_train,
    pair_weights,
    pointwise_reweight_train,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_update,
    train_pointwise,
    train_weighted,
)

__version__ = "0.1.0"
