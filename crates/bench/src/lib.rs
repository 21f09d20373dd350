//! The criterion ablation target lives under `benches/`.
