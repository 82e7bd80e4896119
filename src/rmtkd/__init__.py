"""rmtkd: spectral compression of dense networks with self-distillation.

Train a small dense network, fit the Marchenko-Pastur law to the eigenvalue
spectrum of its activation covariance on a calibration subset, keep only the
eigen-directions that rise above the noise bulk, insert that projection as a
frozen layer (resizing the downstream layer), and fine-tune against a frozen
snapshot of the model itself.  Repeat for each planned layer, stopping early
(with rollback) if accuracy falls below a floor.
"""

from .data import (Dataset, SplitSpec, load_csv, planted_subspace_task,
                   sample_noise_matrix, sample_spiked, save_csv, split)
from .distill import (DistillConfig, accuracy, combined_loss, kl_divergence,
                      snapshot_teacher, softmax, train_until)
from .errors import (AlreadyProjected, ConfigError, CorruptFile,
                     DegenerateSpectrum, GenerationFailure, InvalidInput,
                     NumericalFailure, ParseError, RmtkdError, SchemaError,
                     VersionMismatch)
from .network import (Checkpoint, DenseLayer, Network, backward, forward,
                      init_network, load_checkpoint, param_count,
                      save_checkpoint, sgd_step)
from .reducer import (CompressionPlan, IterationRecord, Projection,
                      analyse_layer, apply_projection, compress_step,
                      quantile_ablation, run_loop)
from .rng import derive_seed, make_rng, normal
from .spectral import (HistogramFit, MPModel, Spectrum, SpectralPartition,
                       bbp_threshold, classify, compute_covariance, eig_sym,
                       fit_sigma2, init_sigma2, mp_bulk_edges, mp_density,
                       wigner_semicircle_density)

__version__ = "0.1.0"
