//! The ptdg benchmark: end-to-end metrics of two workloads with tracing
//! off, and per-layer metrics from a separate traced run. See
//! `perfbench/README.md` for the workloads, metric definitions and the
//! traced-run recipe.

pub mod app;
pub mod env;
pub mod jobs;
pub mod layers;
pub mod stats;
pub mod submit;
pub mod workloads;
