"""unittab: a hierarchical transformer for heterogeneous tabular time
series, built on a minimal numpy reverse-mode autodiff engine.

Field-level and sequence-level transformers are joined by row-type-specific
projections, numerical values enter through interleaved sin/cos frequency
features, and the whole network pretrains with a single masked-token cross
entropy over smoothed targets (neighborhood smoothing for quantized
numerical bins).
"""

from .tensor import Tensor, GradTape, grad_check
from .schema import (
    AttributeSpec, Cat, Missing, Num, Row, RowTypeSpec, Schema, Time, TimeSeries,
    fit_bins, fit_schema, fit_vocab, schema_from_json, schema_hash,
    schema_to_json, validate,
)
from .embedding import expand_schema, freq_encode, prepare_series, split_timestamp
from .data import (
    DatasetSplit, MultitypeConfig, PollutionConfig, balance_upsample,
    gen_multitype_transactions, gen_pollution_like, last_crop, random_crop, read_csv,
    split_by_entity, window, write_csv,
)
from .model import Model, ModelConfig, expected_param_count
from .training import (
    AdamW, TrainConfig, apply_masking, evaluate, finetune, masked_token_loss, pretrain,
    regression_loss,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import (
    EvalReport, accuracy, average_precision, f1, format_report_table, rmse, roc_auc,
)

__version__ = "0.1.0"
