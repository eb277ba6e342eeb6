"""Conditional flow-matching engine for frame-sequence infilling.

The library transports standard-normal noise to frame-feature sequences
along an affine probability path, conditioned on visible context and
frame-aligned phoneme / nonverbal / arousal-valence streams.  It ships
the training task, a from-scratch attention regressor with verified
gradients, guided ODE sampling, the data-curation gates, and trajectory
similarity metrics.
"""

from .fm_core import (
    path_mean_std,
    sample_conditional_path,
    conditional_vector_field,
    on_path_field,
)
from .infill import (
    BatchInputs,
    sample_mask,
    BLANK_TOKEN,
)
from .sampler import (
    GuidanceConfig,
    assemble_prompt,
    guided_field,
    integrate_batch,
)
from .seqmodel import (
    ModelConfig,
    VectorFieldModel,
    init_params,
    embed_phonemes,
    LrSchedule,
    OptimizerState,
    train_step,
    TrainingDivergedError,
    make_field_fn,
    save_checkpoint,
    load_checkpoint,
)
from .features import (
    FeatureMatrix,
    DatasetRecord,
    FormatError,
    interpolate_stream,
    load_feature_matrix,
    store_feature_matrix,
    synth_condition_oracle,
)
from .curate import (
    emotion_gate,
    quality_gate,
    speaker_gate,
    run_pipeline,
)
from .metrics import (
    frame_cosine_sim,
    frame_cosine_profile,
    aro_val_sim,
    aggregate_seeds,
)

__version__ = "0.1.0"
