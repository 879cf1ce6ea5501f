//! # cora-transformer
//!
//! The transformer encoder application of the CoRa paper (§7.2–§7.3,
//! §D.3–§D.8): hyperparameters, analytic FLOP/memory accounting, numeric
//! ragged and padded encoder layers (real CPU execution), the padded and
//! micro-batched CPU MHA baselines ([`mha`]), simulated-GPU encoder
//! implementations (PyTorch / FT / FT-Eff / CoRa), masked SDPA,
//! operation-splitting and hfusion ablations, prelude-overhead
//! measurement, and the compiled tier ([`encoder_compiled`]): one
//! declarative stage table from which the 21-stage encoder layer, its
//! multi-head-attention prefix under full or causal attention
//! ([`CompiledEncoderLayer::build_mha`], [`encoder_compiled::Attend`]),
//! the per-stage operator lookup ([`autotune::stage_operator`]) and the
//! disassembly tool are all derived. To add or fuse a stage, edit that table — nothing else lists
//! the stages. [`autotune`] also keeps the shape-bucket key and the
//! frozen `EncoderAutotuner`, which builds the declared schedules; there
//! is no schedule search.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autotune;
pub mod config;
pub mod encoder;
pub mod encoder_compiled;
pub mod flops;
pub mod gpu;
pub mod masked;
pub mod masked_mha;
pub mod mha;
pub mod prelude_costs;
pub mod variants;
pub mod weights;

pub use autotune::{EncoderAutotuner, TuneOutcome};
pub use config::EncoderConfig;
pub use encoder::{encoder_layer_padded, encoder_layer_ragged, RaggedBatch};
pub use encoder_compiled::{CompiledEncoderLayer, EncoderPrep, EncoderSession};
pub use gpu::{EncoderImpl, EncoderSim};
pub use weights::EncoderWeights;
