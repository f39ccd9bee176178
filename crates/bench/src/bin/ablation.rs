//! Ablations — unfold threshold and unified CC/BV storage as modeled
//! numbers (thin wrapper over [`rap_bench::experiments::ablation`]).

use rap_bench::{experiments, pipeline_from_env};

fn main() {
    let pipe = pipeline_from_env();
    experiments::ablation(&pipe);
}
