//! Synthesis statistics — the quantities the paper's evaluation plots.
//!
//! The struct and its table live in `stsyn-obs`, so the trace summarizer
//! renders a recorded run exactly as the CLI renders a live one.

pub use stsyn_obs::stats::{SynthesisStats, STATS};
