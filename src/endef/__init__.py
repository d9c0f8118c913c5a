"""Entity-debiasing toolkit for binary text classification.

Trains a two-branch composite (entity branch + content detector) with fused
logits and auxiliary entity supervision, then predicts from the detector
branch alone so that entity shortcuts learned from historical data cannot
steer predictions on future data. Ships with temporal-split evaluation,
standardized partial AUC, gazetteer entity recognition, token-level
augmentation, and a synthetic bias-injection generator for end-to-end
verification.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusError,
    EntityBiasRow,
    NewsPiece,
    SplitResult,
    entity_bias_table,
    export_bias_table,
    load_corpus,
    save_corpus,
    temporal_split,
    tokenize,
)
from .framework import (
    Checkpoint,
    EndefModel,
    case_report,
    load_checkpoint,
    logits,
    loss_total,
    make_endef_model,
    save_checkpoint,
    score,
)
from .metrics import (
    EvalReport,
    PredictionSet,
    aggregate_reports,
    evaluate,
    f1_scores,
    paired_ttest,
    roc_auc,
    sp_auc,
)
from .models import (
    BAG_OF_EMBEDDINGS,
    CONV_NGRAM,
    MAX_SEQ_LEN,
    AdamState,
    EncoderSpec,
    ModelError,
    ScalarModel,
    adam_step,
)
from .recognizer import Gazetteer, GazetteerError, recognize, recognize_corpus
from .synthetic import BiasSpec, SyntheticSpecError, generate
from .training import (
    AugmentSettings,
    TrainConfig,
    TrainingError,
    TrainResult,
    evaluate_model,
    grid_search_alpha,
    train,
)
from .vocab import Vocabulary, build_vocabulary
