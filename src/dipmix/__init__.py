"""Sample-mixing classifiers with the mixing marginalized into the hypothesis.

A minimal numpy MLP is wrapped by three training objectives (plain,
label-mixing, and a label-preserving Jensen surrogate that averages several
mixed forwards inside the loss), a Monte-Carlo marginalized predictor that
applies the same mixing at test time, and a data-dependent complexity
diagnostic that quantifies how mixing shrinks the model class. A CLI drives
two-spirals experiments end to end.
"""

__version__ = "0.10.0"

from .bounds import (
    BoundReport,
    bound_report,
    c_lambda_closed,
    c_lambda_mc,
    generalization_gap,
    rademacher_bracket,
)
from .data import Dataset, StandardizeStats, apply_stats, gen_spirals, load_csv, save_csv, split, standardize
from .errors import (ConfigurationError, DivergenceError, DomainError, NumericError, ParseError,
                     ShapeError)
from .mixing import (
    BetaParams,
    MixConfig,
    beta_pdf,
    lambda_prior,
    mix,
    sample_lambda,
    sample_partners,
)
from .nn import (
    ModelParams,
    OptimState,
    ParamGrads,
    Workspace,
    backward,
    forward,
    load_model,
    mlp_init,
    save_model,
    sgd_step,
    softmax_xent,
)
from .objective import (
    EpochMetrics,
    LossEstimate,
    dip_loss_preserving_grad,
    jensen_check,
    mixup_loss_grad,
    prop1_check,
    train,
)
from .predictor import EvalMetrics, PredictorConfig, decision_grid, evaluate, predict_batch
