//! The `advsgm` command-line interface: train embeddings (with live
//! progress and crash-safe checkpointing), persist them in the `.aemb`
//! format (`docs/FORMAT.md`), and serve queries from the file.
//!
//! ```text
//! advsgm train --out emb.aemb [--dataset ppi] [--scale 0.1] [--edges FILE]
//!              [--graph FILE.agph] [--partitions P]
//!              [--variant advsgm] [--epsilon 6] [--delta 1e-5] [--sigma 5]
//!              [--epochs N] [--dim 128] [--batch-size 128] [--lr 0.1]
//!              [--threads N] [--shard-size N] [--seed 0]
//!              [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]
//! advsgm convert --out graph.agph [--dataset ppi] [--scale 0.1]
//!              [--edges FILE] [--seed 0] [--buckets P]
//! advsgm audit --out results/AUDIT_membership.json [--dataset ppi] [--scale 0.05]
//!              [--targets 3] [--runs 5] [--confidence 0.95] [--no-ablation]
//!              [model flags as for train]
//! advsgm query --store emb.aemb --node U [--top-k 10] [--threads N]
//!              [--index emb.aidx --approx 0.95]
//! advsgm query --remote HOST:PORT --node U [--top-k 10] [--approx 0.95]
//! advsgm query --store emb.aemb --pair U V
//! advsgm info  --store emb.aemb
//! advsgm index --store emb.aemb --out emb.aidx [--nlist N]
//! advsgm serve --store emb.aemb [--index emb.aidx | --build-index]
//!              [--addr 127.0.0.1:7878] [--threads N]
//! advsgm stop  --addr HOST:PORT
//! ```
//!
//! The CLI is a thin shell over `advsgm::api`: `parse_train` assembles a
//! [`PipelineBuilder`] (so configuration validation happens exactly once,
//! inside [`PipelineBuilder::build`]), `train` drives a [`Pipeline`] with
//! an observer for progress lines and the built-in checkpoint policy,
//! `query`/`info` serve from an [`EmbeddingService`], and
//! `index`/`serve`/`stop` front the sublinear serving stack
//! (`advsgm::serve`, DESIGN.md §12).
//!
//! `audit` runs the membership-inference harness
//! ([`advsgm::api::audit_membership`], DESIGN.md §13) against the same
//! pipeline and writes the `results/AUDIT_membership.json` artifact.
//!
//! `convert` writes a graph out as a partitioned `.agph` file
//! (`docs/FORMAT.md`), the disk-resident input of the out-of-core
//! training path: `train --graph g.agph --partitions P` runs the
//! sequential engine out of core, keeping at most two embedding
//! partitions in memory while producing bitwise-identical releases
//! (DESIGN.md §14).
//!
//! Argument parsing is hand-rolled like `advsgm-bench`'s: a handful of
//! subcommands and a score of flags do not justify a CLI dependency
//! outside the vendored crate set. Parsing is pure (`parse_train` /
//! `parse_convert` / `parse_audit` / `parse_query` / `parse_info` /
//! `parse_index` / `parse_serve` / `parse_stop` return argument structs)
//! so it is unit-tested without touching the filesystem.

use std::num::NonZeroUsize;
use std::process::ExitCode;

use advsgm::api::{
    audit_membership, AuditConfig, Checkpoint, Delta, Dim, EmbeddingService, Epsilon, ModelVariant,
    NoiseSigma, Pipeline, PipelineBuilder, PipelineEvent, StopReason,
};
use advsgm::datasets::{dataset_by_name, synthesize};
use advsgm::graph::io::read_edge_list_file;
use advsgm::graph::Graph;
use advsgm::serve::{client::ServeClient, ServeConfig, Server};
use advsgm::store::{IndexParams, IvfIndex};

const USAGE: &str = "usage:
  advsgm train --out PATH [--dataset NAME] [--scale F] [--edges FILE]
               [--graph FILE] [--partitions P]
               [--variant sgm|dp-sgm|dp-asgm|advsgm|advsgm-nodp|
                          signed-advsgm|sp-advsgm]
               [--epsilon F] [--delta F] [--sigma F] [--epochs N]
               [--dim N] [--batch-size N] [--lr F] [--threads N]
               [--shard-size N] [--seed N]
               [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]
  advsgm convert --out PATH [--dataset NAME] [--scale F] [--edges FILE]
               [--seed N] [--buckets P]
  advsgm audit [--out PATH] [--dataset NAME] [--scale F] [--edges FILE]
               [--variant ...] [--epsilon F] [--delta F] [--sigma F]
               [--epochs N] [--dim N] [--batch-size N] [--lr F]
               [--seed N] [--threads N] [--targets N] [--runs N]
               [--test-fraction F] [--confidence F] [--no-ablation]
  advsgm query --store PATH --node U [--top-k K] [--threads N]
               [--index PATH --approx RECALL]
  advsgm query --remote HOST:PORT --node U [--top-k K] [--approx RECALL]
  advsgm query --store PATH --pair U V
  advsgm info  [--store PATH] [--host]
  advsgm index --store PATH --out PATH [--nlist N] [--kmeans-iters N]
               [--sample-queries N]
  advsgm serve --store PATH [--index PATH | --build-index]
               [--addr HOST:PORT] [--threads N] [--cache N]
               [--max-requests N] [--relaxed]
  advsgm stop  --addr HOST:PORT

train flags:
  --batch-size N        pairs per discriminator batch B (default 128)
  --lr F                learning rate for both eta_d and eta_g (default 0.1)
  --threads N           worker threads for the training engine; precedence:
                        an explicit N > 0 here overrides the ADVSGM_THREADS
                        environment variable, 0 (the default) defers to
                        ADVSGM_THREADS, and with both unset training runs on
                        1 thread
  --shard-size N        pairs per parallel shard; 0 = auto (batch/threads)
  --graph FILE          load the training graph from FILE: .agph files go
                        through the verified partitioned codec, anything
                        else is parsed as a whitespace edge-list
  --partitions P        train out of core with P node buckets (at most the
                        node count): embeddings live on disk and at most
                        two bucket partitions are resident at once,
                        bitwise-identical to the in-RAM sequential run;
                        0 (the default) trains in RAM and never touches
                        disk. With --resume it sets the residency of a
                        sequential checkpoint (any P continues its
                        trajectory exactly); a sharded checkpoint resumes
                        only in RAM and refuses P > 0
  --checkpoint-every N  write a resumable .actk checkpoint every N epochs
  --checkpoint PATH     checkpoint file (default: <out>.actk)
  --resume PATH         resume a checkpointed run bitwise-exactly; only
                        --out/--dataset/--scale/--edges/--epochs and the
                        checkpoint flags may accompany it (the rest of the
                        configuration is pinned by the checkpoint)

audit flags (model flags as for train; --dim 32 / --epochs 5 defaults):
  --out PATH            report path (default results/AUDIT_membership.json)
  --targets N           target edges in the audit panel (default 3)
  --runs N              training runs per world per edge (default 5; the
                        audit trains 2 * targets * runs releases)
  --test-fraction F     held-out split fraction supplying the panel
                        (default 0.1)
  --confidence F        Clopper-Pearson confidence level (default 0.95)
  --threads N           fan-out width for paired training runs; 0 = auto
                        (ADVSGM_THREADS, else 1); each run trains on 1
                        thread regardless
  --no-ablation         skip the sigma->0 (no-DP) sensitivity check

convert flags:
  --out PATH            the .agph file to write (required)
  --buckets P           node buckets to partition the edge sections into
                        (default 1); training may use any partition count
                        regardless of how the file was bucketed

serving flags:
  --index PATH          load a prebuilt .aidx ANN index (query: enables
                        --approx; serve: serves approximate requests)
  --approx RECALL       answer top-k through the ANN index at a recall
                        target in [0,1] (1.0 = exact); requires --index
                        locally, always available against --remote
  --remote HOST:PORT    query a running `advsgm serve` over the wire
                        instead of opening a store file
  --build-index         serve: build the index in memory at startup
                        instead of loading an .aidx file
  --cache N             serve: LRU capacity in cached top-k results
                        (default 1024; 0 disables)
  --max-requests N      serve: exit after answering N requests
  --relaxed             serve: score approximate (--approx < 1) candidate
                        scans with relaxed-tier SIMD kernels (reassociated
                        FMA); exact queries stay bitwise. Off by default
  --host                info: report detected CPU features and the kernel
                        backend the process would select (no store needed)

kernel backend (ADVSGM_KERNELS):
  every hot kernel dispatches through a runtime-selected backend:
  scalar | avx2 | neon. Precedence mirrors ADVSGM_THREADS: a set, valid,
  host-supported ADVSGM_KERNELS value wins; an unsupported or unknown
  value degrades to auto-detection (reported by `info --host`); unset
  auto-detects the strongest supported backend. Training and exact
  serving are bitwise-identical across backends";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) => c,
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rest: Vec<String> = args.collect();
    let result = match cmd.as_str() {
        "train" => parse_train(&rest).and_then(cmd_train),
        "convert" => parse_convert(&rest).and_then(cmd_convert),
        "audit" => parse_audit(&rest).and_then(cmd_audit),
        "query" => parse_query(&rest).and_then(cmd_query),
        "info" => parse_info(&rest).and_then(cmd_info),
        "index" => parse_index(&rest).and_then(cmd_index),
        "serve" => parse_serve(&rest).and_then(cmd_serve),
        "stop" => parse_stop(&rest).and_then(cmd_stop),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("advsgm {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value following a flag out of the token list.
fn take_value(tokens: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    tokens
        .get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_variant(name: &str) -> Result<ModelVariant, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "sgm" => ModelVariant::Sgm,
        "dp-sgm" | "dpsgm" => ModelVariant::DpSgm,
        "dp-asgm" | "dpasgm" => ModelVariant::DpAsgm,
        "advsgm" => ModelVariant::AdvSgm,
        "advsgm-nodp" | "advsgmnodp" => ModelVariant::AdvSgmNoDp,
        "signed-advsgm" | "signedadvsgm" => ModelVariant::SignedAdvSgm,
        "sp-advsgm" | "spadvsgm" => ModelVariant::SpAdvSgm,
        other => {
            return Err(format!(
                "unknown variant {other:?} (sgm, dp-sgm, dp-asgm, advsgm, advsgm-nodp, \
                 signed-advsgm, sp-advsgm)"
            ))
        }
    })
}

/// Parsed `advsgm train` arguments. The model configuration lives in a
/// [`PipelineBuilder`] so no code path can hold an `AdvSgmConfig` that
/// skipped the builder's validation.
#[derive(Debug, Clone)]
struct TrainArgs {
    out: String,
    dataset: String,
    scale: f64,
    edges: Option<String>,
    /// `--graph`: a graph file loaded by extension (`.agph` through the
    /// partitioned codec, anything else as an edge-list). Takes
    /// precedence over `--edges`.
    graph: Option<String>,
    /// `--partitions`: node buckets for the out-of-core engine; `0`
    /// trains in RAM. Not a model flag — the trajectory is
    /// partition-invariant, so it is legal alongside `--resume` (where a
    /// sharded checkpoint refuses it).
    partitions: usize,
    builder: PipelineBuilder,
    /// `--epochs`, remembered separately so `--resume` can extend a run.
    epochs_explicit: Option<usize>,
    checkpoint_every: Option<NonZeroUsize>,
    checkpoint_path: Option<String>,
    resume: Option<String>,
    /// Model-configuration flags seen on the command line; `--resume`
    /// rejects them (the checkpoint pins the configuration).
    model_flags_seen: Vec<&'static str>,
}

fn parse_train(tokens: &[String]) -> Result<TrainArgs, String> {
    let mut args = TrainArgs {
        out: String::new(),
        dataset: "ppi".to_string(),
        scale: 0.1,
        edges: None,
        graph: None,
        partitions: 0,
        // A CLI run should finish in seconds by default; paper-scale epochs
        // remain one `--epochs 50` away.
        builder: PipelineBuilder::new(ModelVariant::AdvSgm).epochs(5),
        epochs_explicit: None,
        checkpoint_every: None,
        checkpoint_path: None,
        resume: None,
        model_flags_seen: Vec::new(),
    };
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--out" => out = Some(take_value(tokens, &mut i, "--out")?),
            "--dataset" => args.dataset = take_value(tokens, &mut i, "--dataset")?,
            "--scale" => {
                args.scale = parse_num(&take_value(tokens, &mut i, "--scale")?, "--scale")?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(format!("--scale must be in (0,1], got {}", args.scale));
                }
            }
            "--edges" => args.edges = Some(take_value(tokens, &mut i, "--edges")?),
            "--graph" => args.graph = Some(take_value(tokens, &mut i, "--graph")?),
            "--partitions" => {
                args.partitions =
                    parse_num(&take_value(tokens, &mut i, "--partitions")?, "--partitions")?;
            }
            "--variant" => {
                let v = parse_variant(&take_value(tokens, &mut i, "--variant")?)?;
                args.builder = args.builder.variant(v);
                args.model_flags_seen.push("--variant");
            }
            "--epsilon" => {
                let raw: f64 = parse_num(&take_value(tokens, &mut i, "--epsilon")?, "--epsilon")?;
                let eps = Epsilon::new(raw).map_err(|e| format!("--epsilon: {e}"))?;
                args.builder = args.builder.epsilon(eps);
                args.model_flags_seen.push("--epsilon");
            }
            "--delta" => {
                let raw: f64 = parse_num(&take_value(tokens, &mut i, "--delta")?, "--delta")?;
                let delta = Delta::new(raw).map_err(|e| format!("--delta: {e}"))?;
                args.builder = args.builder.delta(delta);
                args.model_flags_seen.push("--delta");
            }
            "--sigma" => {
                let raw: f64 = parse_num(&take_value(tokens, &mut i, "--sigma")?, "--sigma")?;
                let sigma = NoiseSigma::new(raw).map_err(|e| format!("--sigma: {e}"))?;
                args.builder = args.builder.sigma(sigma);
                args.model_flags_seen.push("--sigma");
            }
            "--epochs" => {
                let e: usize = parse_num(&take_value(tokens, &mut i, "--epochs")?, "--epochs")?;
                args.builder = args.builder.epochs(e);
                args.epochs_explicit = Some(e);
            }
            "--dim" => {
                let raw: usize = parse_num(&take_value(tokens, &mut i, "--dim")?, "--dim")?;
                let dim = Dim::new(raw).map_err(|e| format!("--dim: {e}"))?;
                args.builder = args.builder.dim(dim);
                args.model_flags_seen.push("--dim");
            }
            "--batch-size" => {
                let b: usize =
                    parse_num(&take_value(tokens, &mut i, "--batch-size")?, "--batch-size")?;
                if b == 0 {
                    return Err("--batch-size must be positive, got 0".into());
                }
                args.builder = args.builder.batch_size(b);
                args.model_flags_seen.push("--batch-size");
            }
            "--lr" => {
                let lr: f64 = parse_num(&take_value(tokens, &mut i, "--lr")?, "--lr")?;
                if !(lr > 0.0 && lr.is_finite()) {
                    return Err(format!("--lr must be positive and finite, got {lr}"));
                }
                // The paper sets eta_d = eta_g (Section VI-A); one flag
                // drives both.
                args.builder = args.builder.learning_rate(lr);
                args.model_flags_seen.push("--lr");
            }
            "--threads" => {
                // Maps to `AdvSgmConfig::with_threads` via the builder.
                // Precedence: an explicit N > 0 overrides ADVSGM_THREADS;
                // 0 (the default) defers to the environment, else 1.
                let n: usize = parse_num(&take_value(tokens, &mut i, "--threads")?, "--threads")?;
                args.builder = args.builder.threads(n);
                args.model_flags_seen.push("--threads");
            }
            "--shard-size" => {
                // 0 is meaningful (auto: divide the batch over threads).
                let n: usize =
                    parse_num(&take_value(tokens, &mut i, "--shard-size")?, "--shard-size")?;
                args.builder = args.builder.shard_size(n);
                args.model_flags_seen.push("--shard-size");
            }
            "--seed" => {
                let s: u64 = parse_num(&take_value(tokens, &mut i, "--seed")?, "--seed")?;
                args.builder = args.builder.seed(s);
                args.model_flags_seen.push("--seed");
            }
            "--checkpoint-every" => {
                let n: usize = parse_num(
                    &take_value(tokens, &mut i, "--checkpoint-every")?,
                    "--checkpoint-every",
                )?;
                args.checkpoint_every = Some(
                    NonZeroUsize::new(n)
                        .ok_or_else(|| "--checkpoint-every must be positive, got 0".to_string())?,
                );
            }
            "--checkpoint" => {
                args.checkpoint_path = Some(take_value(tokens, &mut i, "--checkpoint")?);
            }
            "--resume" => args.resume = Some(take_value(tokens, &mut i, "--resume")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    args.out = out.ok_or_else(|| format!("--out is required\n{USAGE}"))?;
    if args.resume.is_some() && !args.model_flags_seen.is_empty() {
        return Err(format!(
            "--resume pins the model configuration from the checkpoint; \
             remove {} (only --out/--dataset/--scale/--edges/--epochs and \
             the checkpoint flags may accompany --resume)",
            args.model_flags_seen.join(", ")
        ));
    }
    Ok(args)
}

/// Parsed `advsgm convert` arguments: a graph source (as for `train`)
/// and the `.agph` file to write.
#[derive(Debug, Clone)]
struct ConvertArgs {
    out: String,
    dataset: String,
    scale: f64,
    edges: Option<String>,
    seed: u64,
    buckets: usize,
}

fn parse_convert(tokens: &[String]) -> Result<ConvertArgs, String> {
    let mut args = ConvertArgs {
        out: String::new(),
        dataset: "ppi".to_string(),
        scale: 0.1,
        edges: None,
        seed: 0,
        buckets: 1,
    };
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--out" => out = Some(take_value(tokens, &mut i, "--out")?),
            "--dataset" => args.dataset = take_value(tokens, &mut i, "--dataset")?,
            "--scale" => {
                args.scale = parse_num(&take_value(tokens, &mut i, "--scale")?, "--scale")?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(format!("--scale must be in (0,1], got {}", args.scale));
                }
            }
            "--edges" => args.edges = Some(take_value(tokens, &mut i, "--edges")?),
            "--seed" => args.seed = parse_num(&take_value(tokens, &mut i, "--seed")?, "--seed")?,
            "--buckets" => {
                args.buckets = parse_num(&take_value(tokens, &mut i, "--buckets")?, "--buckets")?;
                if args.buckets == 0 {
                    return Err("--buckets must be positive, got 0".into());
                }
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    args.out = out.ok_or_else(|| format!("--out is required\n{USAGE}"))?;
    Ok(args)
}

fn cmd_convert(args: ConvertArgs) -> Result<(), String> {
    let graph = build_graph(args.edges.as_deref(), &args.dataset, args.scale, args.seed)?;
    advsgm::store::save_agph(&args.out, &graph, args.buckets)
        .map_err(|e| format!("{}: {e}", args.out))?;
    let size = std::fs::metadata(&args.out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {}: {} nodes, {} edges in {} bucket section(s) ({})",
        args.out,
        graph.num_nodes(),
        graph.num_edges(),
        args.buckets,
        human_bytes(size as usize)
    );
    Ok(())
}

/// Parsed `advsgm audit` arguments: the training configuration under
/// audit (a [`PipelineBuilder`], like `train`) plus the harness geometry
/// (an [`AuditConfig`]).
#[derive(Debug, Clone)]
struct AuditArgs {
    out: String,
    dataset: String,
    scale: f64,
    edges: Option<String>,
    builder: PipelineBuilder,
    cfg: AuditConfig,
    ablation: bool,
}

fn parse_audit(tokens: &[String]) -> Result<AuditArgs, String> {
    let mut args = AuditArgs {
        out: "results/AUDIT_membership.json".to_string(),
        dataset: "ppi".to_string(),
        scale: 0.05,
        edges: None,
        // The audit trains 2 * targets * runs releases, so the default
        // model is the quick CLI shape (small dim, few epochs); paper
        // scale stays one `--dim 128 --epochs 50` away.
        builder: PipelineBuilder::new(ModelVariant::AdvSgm)
            .epochs(5)
            .dim(Dim::new(32).expect("32 is a valid dimension")),
        cfg: AuditConfig::new(0),
        ablation: true,
    };

    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--out" => args.out = take_value(tokens, &mut i, "--out")?,
            "--dataset" => args.dataset = take_value(tokens, &mut i, "--dataset")?,
            "--scale" => {
                args.scale = parse_num(&take_value(tokens, &mut i, "--scale")?, "--scale")?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(format!("--scale must be in (0,1], got {}", args.scale));
                }
            }
            "--edges" => args.edges = Some(take_value(tokens, &mut i, "--edges")?),
            "--variant" => {
                let v = parse_variant(&take_value(tokens, &mut i, "--variant")?)?;
                args.builder = args.builder.variant(v);
            }
            "--epsilon" => {
                let raw: f64 = parse_num(&take_value(tokens, &mut i, "--epsilon")?, "--epsilon")?;
                let eps = Epsilon::new(raw).map_err(|e| format!("--epsilon: {e}"))?;
                args.builder = args.builder.epsilon(eps);
            }
            "--delta" => {
                let raw: f64 = parse_num(&take_value(tokens, &mut i, "--delta")?, "--delta")?;
                let delta = Delta::new(raw).map_err(|e| format!("--delta: {e}"))?;
                args.builder = args.builder.delta(delta);
                // The empirical bound is stated at the training delta.
                args.cfg.delta = raw;
            }
            "--sigma" => {
                let raw: f64 = parse_num(&take_value(tokens, &mut i, "--sigma")?, "--sigma")?;
                let sigma = NoiseSigma::new(raw).map_err(|e| format!("--sigma: {e}"))?;
                args.builder = args.builder.sigma(sigma);
            }
            "--epochs" => {
                let e: usize = parse_num(&take_value(tokens, &mut i, "--epochs")?, "--epochs")?;
                args.builder = args.builder.epochs(e);
            }
            "--dim" => {
                let raw: usize = parse_num(&take_value(tokens, &mut i, "--dim")?, "--dim")?;
                let dim = Dim::new(raw).map_err(|e| format!("--dim: {e}"))?;
                args.builder = args.builder.dim(dim);
            }
            "--batch-size" => {
                let b: usize =
                    parse_num(&take_value(tokens, &mut i, "--batch-size")?, "--batch-size")?;
                if b == 0 {
                    return Err("--batch-size must be positive, got 0".into());
                }
                args.builder = args.builder.batch_size(b);
            }
            "--lr" => {
                let lr: f64 = parse_num(&take_value(tokens, &mut i, "--lr")?, "--lr")?;
                if !(lr > 0.0 && lr.is_finite()) {
                    return Err(format!("--lr must be positive and finite, got {lr}"));
                }
                args.builder = args.builder.learning_rate(lr);
            }
            "--seed" => {
                let s: u64 = parse_num(&take_value(tokens, &mut i, "--seed")?, "--seed")?;
                // One seed drives both the graph synthesis/panel draw and
                // (through the harness's derivation chain) every run.
                args.builder = args.builder.seed(s);
                args.cfg.seed = s;
            }
            "--threads" => {
                // Unlike train, this is the *fan-out* width over paired
                // runs; each individual run trains sequentially.
                args.cfg.threads =
                    parse_num(&take_value(tokens, &mut i, "--threads")?, "--threads")?;
            }
            "--targets" => {
                args.cfg.targets =
                    parse_num(&take_value(tokens, &mut i, "--targets")?, "--targets")?;
            }
            "--runs" => {
                args.cfg.runs_per_world =
                    parse_num(&take_value(tokens, &mut i, "--runs")?, "--runs")?;
            }
            "--test-fraction" => {
                args.cfg.test_fraction = parse_num(
                    &take_value(tokens, &mut i, "--test-fraction")?,
                    "--test-fraction",
                )?;
            }
            "--confidence" => {
                args.cfg.confidence =
                    parse_num(&take_value(tokens, &mut i, "--confidence")?, "--confidence")?;
            }
            "--no-ablation" => args.ablation = false,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    // Geometry/statistics violations get the harness's typed messages at
    // parse time rather than after graph synthesis.
    args.cfg.validate().map_err(|e| e.to_string())?;
    Ok(args)
}

fn cmd_audit(args: AuditArgs) -> Result<(), String> {
    let graph = build_graph(
        args.edges.as_deref(),
        &args.dataset,
        args.scale,
        args.cfg.seed,
    )?;
    let per_condition = 2 * args.cfg.targets * args.cfg.runs_per_world;
    let conditions = if args.ablation { 2 } else { 1 };
    println!(
        "auditing {} ({} target edge(s) x {} run(s)/world x 2 worlds = {} training runs{})...",
        args.builder.config().variant.paper_name(),
        args.cfg.targets,
        args.cfg.runs_per_world,
        per_condition * conditions,
        if args.ablation {
            " incl. sigma->0 ablation"
        } else {
            ""
        }
    );
    let start = std::time::Instant::now();
    let report = audit_membership(&graph, &args.builder, &args.cfg, args.ablation)
        .map_err(|e| e.to_string())?;
    report.write(&args.out).map_err(|e| e.to_string())?;

    println!("audited in {:.2?}:", start.elapsed());
    for a in &report.audit.attacks {
        println!(
            "  {:<18} tpr {:.3}  fpr {:.3}  certified eps >= {:.4}",
            a.name, a.tpr, a.fpr, a.empirical_epsilon
        );
    }
    match report.audit.stamped_epsilon {
        Some(stamp) => println!(
            "  empirical eps >= {:.4} vs stamped eps = {:.4} -> {}",
            report.audit.empirical_epsilon, stamp, report.verdict
        ),
        None => println!(
            "  empirical eps >= {:.4} (release is unstamped) -> {}",
            report.audit.empirical_epsilon, report.verdict
        ),
    }
    if let Some(ablation) = &report.ablation {
        println!(
            "  sigma->0 ablation: empirical eps >= {:.4} (attack power check)",
            ablation.empirical_epsilon
        );
    }
    println!("wrote {}", args.out);
    Ok(())
}

/// What an `advsgm query` invocation asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum QueryTarget {
    /// Top-k neighbors of one node.
    Node { node: usize, top_k: usize },
    /// The Eq. 2 link score of one pair.
    Pair { u: usize, v: usize },
}

/// Where an `advsgm query` resolves: a local store file or a running
/// `advsgm serve` endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
enum QuerySource {
    /// Open a local `.aemb` (optionally with an `.aidx` alongside).
    Local {
        store: String,
        index: Option<String>,
    },
    /// Talk to a serving endpoint over the wire protocol.
    Remote { addr: String },
}

/// Parsed `advsgm query` arguments.
#[derive(Debug, Clone)]
struct QueryArgs {
    source: QuerySource,
    target: QueryTarget,
    threads: usize,
    /// Recall target for approximate top-k; `None` = exact.
    approx: Option<f64>,
}

fn parse_query(tokens: &[String]) -> Result<QueryArgs, String> {
    let mut path: Option<String> = None;
    let mut index: Option<String> = None;
    let mut remote: Option<String> = None;
    let mut node: Option<usize> = None;
    let mut pair: Option<(usize, usize)> = None;
    let mut top_k = 10usize;
    let mut threads = 0usize;
    let mut approx: Option<f64> = None;

    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--store" => path = Some(take_value(tokens, &mut i, "--store")?),
            "--index" => index = Some(take_value(tokens, &mut i, "--index")?),
            "--remote" => remote = Some(take_value(tokens, &mut i, "--remote")?),
            "--node" => node = Some(parse_num(&take_value(tokens, &mut i, "--node")?, "--node")?),
            "--pair" => {
                let u: usize = parse_num(&take_value(tokens, &mut i, "--pair")?, "--pair")?;
                let v: usize = parse_num(&take_value(tokens, &mut i, "--pair")?, "--pair")?;
                pair = Some((u, v));
            }
            "--top-k" => {
                top_k = parse_num(&take_value(tokens, &mut i, "--top-k")?, "--top-k")?;
            }
            "--threads" => {
                threads = parse_num(&take_value(tokens, &mut i, "--threads")?, "--threads")?;
            }
            "--approx" => {
                let r: f64 = parse_num(&take_value(tokens, &mut i, "--approx")?, "--approx")?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("--approx must be in [0,1], got {r}"));
                }
                approx = Some(r);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    let source = match (remote, path) {
        (Some(_), Some(_)) => {
            return Err("pass either --store PATH or --remote HOST:PORT, not both".into())
        }
        (Some(addr), None) => {
            if index.is_some() {
                return Err("--index is a local-store flag; the server owns its index".into());
            }
            if threads != 0 {
                return Err("--threads is a local-store flag; the server owns its pool".into());
            }
            QuerySource::Remote { addr }
        }
        (None, Some(store)) => QuerySource::Local { store, index },
        (None, None) => {
            return Err(format!("--store or --remote is required\n{USAGE}"));
        }
    };
    if approx.is_some() && matches!(source, QuerySource::Local { index: None, .. }) {
        return Err("--approx needs an ANN index: pass --index PATH (or query --remote)".into());
    }
    let target = match (pair, node) {
        (Some(_), Some(_)) => {
            return Err("pass either --node U or --pair U V, not both".into());
        }
        (Some((u, v)), None) => QueryTarget::Pair { u, v },
        (None, Some(node)) => QueryTarget::Node { node, top_k },
        (None, None) => return Err(format!("need --node U or --pair U V\n{USAGE}")),
    };
    Ok(QueryArgs {
        source,
        target,
        threads,
        approx,
    })
}

/// Parsed `advsgm info` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InfoArgs {
    store: Option<String>,
    host: bool,
}

fn parse_info(tokens: &[String]) -> Result<InfoArgs, String> {
    let mut path: Option<String> = None;
    let mut host = false;
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--store" => path = Some(take_value(tokens, &mut i, "--store")?),
            "--host" => host = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if path.is_none() && !host {
        return Err(format!("pass --store PATH and/or --host\n{USAGE}"));
    }
    Ok(InfoArgs { store: path, host })
}

/// Parsed `advsgm index` arguments.
#[derive(Debug, Clone, PartialEq)]
struct IndexArgs {
    store: String,
    out: String,
    params: IndexParams,
}

fn parse_index(tokens: &[String]) -> Result<IndexArgs, String> {
    let mut store: Option<String> = None;
    let mut out: Option<String> = None;
    let mut params = IndexParams::default();
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--store" => store = Some(take_value(tokens, &mut i, "--store")?),
            "--out" => out = Some(take_value(tokens, &mut i, "--out")?),
            "--nlist" => {
                params.nlist = parse_num(&take_value(tokens, &mut i, "--nlist")?, "--nlist")?;
            }
            "--kmeans-iters" => {
                let n: usize = parse_num(
                    &take_value(tokens, &mut i, "--kmeans-iters")?,
                    "--kmeans-iters",
                )?;
                if n == 0 {
                    return Err("--kmeans-iters must be positive, got 0".into());
                }
                params.kmeans_iters = n;
            }
            "--sample-queries" => {
                let n: usize = parse_num(
                    &take_value(tokens, &mut i, "--sample-queries")?,
                    "--sample-queries",
                )?;
                if n == 0 {
                    return Err("--sample-queries must be positive, got 0".into());
                }
                params.sample_queries = n;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(IndexArgs {
        store: store.ok_or_else(|| format!("--store is required\n{USAGE}"))?,
        out: out.ok_or_else(|| format!("--out is required\n{USAGE}"))?,
        params,
    })
}

/// Parsed `advsgm serve` arguments.
#[derive(Debug, Clone, PartialEq)]
struct ServeArgs {
    store: String,
    index: Option<String>,
    build_index: bool,
    addr: String,
    threads: usize,
    cache: usize,
    max_requests: Option<u64>,
    relaxed: bool,
}

fn parse_serve(tokens: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        store: String::new(),
        index: None,
        build_index: false,
        addr: "127.0.0.1:7878".to_string(),
        threads: 0,
        cache: 1024,
        max_requests: None,
        relaxed: false,
    };
    let mut store: Option<String> = None;
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--store" => store = Some(take_value(tokens, &mut i, "--store")?),
            "--index" => args.index = Some(take_value(tokens, &mut i, "--index")?),
            "--build-index" => args.build_index = true,
            "--addr" => args.addr = take_value(tokens, &mut i, "--addr")?,
            "--threads" => {
                args.threads = parse_num(&take_value(tokens, &mut i, "--threads")?, "--threads")?;
            }
            "--cache" => {
                args.cache = parse_num(&take_value(tokens, &mut i, "--cache")?, "--cache")?;
            }
            "--max-requests" => {
                let n: u64 = parse_num(
                    &take_value(tokens, &mut i, "--max-requests")?,
                    "--max-requests",
                )?;
                if n == 0 {
                    return Err("--max-requests must be positive, got 0".into());
                }
                args.max_requests = Some(n);
            }
            "--relaxed" => args.relaxed = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if args.index.is_some() && args.build_index {
        return Err("pass either --index PATH or --build-index, not both".into());
    }
    args.store = store.ok_or_else(|| format!("--store is required\n{USAGE}"))?;
    Ok(args)
}

/// Parsed `advsgm stop` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StopArgs {
    addr: String,
}

fn parse_stop(tokens: &[String]) -> Result<StopArgs, String> {
    let mut addr: Option<String> = None;
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "--addr" => addr = Some(take_value(tokens, &mut i, "--addr")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(StopArgs {
        addr: addr.ok_or_else(|| format!("--addr is required\n{USAGE}"))?,
    })
}

/// Builds a graph from `--edges` or the named synthetic dataset
/// (scaled), announcing what was loaded. Shared by `train` and `audit`.
fn build_graph(edges: Option<&str>, dataset: &str, scale: f64, seed: u64) -> Result<Graph, String> {
    match edges {
        Some(path) => {
            // Dispatch on the extension: `.agph` goes through the
            // verified partitioned codec, anything else is an edge-list.
            let g = if std::path::Path::new(path)
                .extension()
                .is_some_and(|e| e == "agph")
            {
                advsgm::store::load_agph(path).map_err(|e| format!("--graph {path}: {e}"))?
            } else {
                read_edge_list_file(path, None).map_err(|e| format!("--edges {path}: {e}"))?
            };
            println!(
                "loaded {path}: {} nodes, {} edges",
                g.num_nodes(),
                g.num_edges()
            );
            Ok(g)
        }
        None => {
            let d = dataset_by_name(dataset).ok_or_else(|| {
                format!(
                    "unknown dataset {dataset:?} (PPI, Facebook, Wiki, Blog, Epinions, DBLP, \
                     Polarity)"
                )
            })?;
            let spec = d.spec().scaled(scale);
            let g = synthesize(&spec, seed);
            println!(
                "synthesized {} at scale {scale}: {} nodes, {} edges",
                d.name(),
                g.num_nodes(),
                g.num_edges()
            );
            Ok(g)
        }
    }
}

fn cmd_train(args: TrainArgs) -> Result<(), String> {
    let (graph, checkpoint) = train_inputs(&args)?;
    let pipeline = train_pipeline(&args, &graph, checkpoint)?;
    run_training(&args, pipeline)
}

/// Loads what a `train` run starts from: the `--resume` checkpoint, if
/// any (with `--epochs` applied), and the training graph.
fn train_inputs(args: &TrainArgs) -> Result<(Graph, Option<Checkpoint>), String> {
    let graph_source = args.graph.as_deref().or(args.edges.as_deref());
    let Some(resume_path) = args.resume.as_deref() else {
        let seed = args.builder.config().seed;
        let graph = build_graph(graph_source, &args.dataset, args.scale, seed)?;
        return Ok((graph, None));
    };
    let mut ckpt =
        Checkpoint::load(resume_path).map_err(|e| format!("--resume {resume_path}: {e}"))?;
    if let Some(e) = args.epochs_explicit {
        // Extending (or shortening, down to the completed count) the
        // schedule is the one legal override: batch draws never depend
        // on the total epoch count.
        ckpt.extend_epochs(e).map_err(|e| e.to_string())?;
    }
    // The graph must be the checkpoint's graph; for synthetic datasets
    // that means the checkpoint's seed, and resume re-verifies the stored
    // fingerprint either way.
    let graph = build_graph(graph_source, &args.dataset, args.scale, ckpt.seed())?;
    println!(
        "resumed {resume_path}: {}/{} epochs done, {} discriminator updates",
        ckpt.epochs_done(),
        ckpt.config().epochs,
        ckpt.disc_updates()
    );
    Ok((graph, Some(ckpt)))
}

/// Stands up the `train` pipeline at the `--partitions` residency: a
/// fresh build, or a resume of `checkpoint` (a sharded checkpoint refuses
/// `--partitions` with a typed error).
fn train_pipeline<'g>(
    args: &TrainArgs,
    graph: &'g Graph,
    checkpoint: Option<Checkpoint>,
) -> Result<Pipeline<'g>, String> {
    let pipeline = match checkpoint {
        None => args
            .builder
            .clone()
            .partitions(args.partitions)
            .build(graph),
        Some(mut ckpt) => {
            ckpt.set_partitions(args.partitions);
            Pipeline::resume_from(graph, ckpt)
        }
    };
    pipeline.map_err(|e| e.to_string())
}

/// Drives a (fresh or resumed) pipeline to completion with progress +
/// checkpoint reporting, then persists the released store.
fn run_training(args: &TrainArgs, pipeline: Pipeline<'_>) -> Result<(), String> {
    let cfg = pipeline.config().clone();
    let residency = match pipeline.partitions() {
        0 => String::new(),
        p => format!(", {p} partitions"),
    };
    println!(
        "training {} (dim {}, {} epochs, batch {}, lr {}, {} thread(s){residency})...",
        cfg.variant.paper_name(),
        cfg.dim,
        cfg.epochs,
        cfg.batch_size,
        cfg.eta_d,
        pipeline.threads()
    );
    let mut pipeline = pipeline.observe(|event| match event {
        PipelineEvent::Epoch(e) => {
            let spend = match &e.spend {
                Some(s) => format!("  eps {:.4}  delta {:.2e}", s.epsilon_spent, s.delta_spent),
                None => String::new(),
            };
            match (e.stop, e.loss) {
                (Some(StopReason::BudgetExhausted), _) => {
                    println!(
                        "epoch {:>3}/{}: privacy budget exhausted after {} updates{spend}",
                        e.epoch + 1,
                        e.epochs_total,
                        e.disc_updates
                    );
                }
                (_, Some(loss)) => {
                    println!(
                        "epoch {:>3}/{}  |L_Nov| {loss:.4}{spend}",
                        e.epoch + 1,
                        e.epochs_total
                    );
                }
                (_, None) => {}
            }
        }
        PipelineEvent::CheckpointSaved { path, epochs_done } => {
            println!("checkpoint: wrote {} (epoch {epochs_done})", path.display());
        }
        _ => {}
    });
    if let Some(every) = args.checkpoint_every {
        let path = args
            .checkpoint_path
            .clone()
            .unwrap_or_else(|| format!("{}.actk", args.out));
        pipeline = pipeline.checkpoint_every(every, path);
    }

    let start = std::time::Instant::now();
    let trained = pipeline.train().map_err(|e| e.to_string())?;
    let outcome = trained.outcome();
    println!(
        "trained in {:.2?}: {} epochs, {} discriminator updates{}{}",
        start.elapsed(),
        outcome.epochs_run,
        outcome.disc_updates,
        if outcome.stopped_by_budget {
            " (stopped by privacy budget)"
        } else {
            ""
        },
        if trained.checkpoints_written() > 0 {
            format!(", {} checkpoint(s) written", trained.checkpoints_written())
        } else {
            String::new()
        }
    );

    // Serialise once; the same buffer provides the file and the size line.
    let bytes = trained.store().to_bytes();
    std::fs::write(&args.out, &bytes).map_err(|e| format!("{}: {e}", args.out))?;
    println!(
        "saved {} nodes x {} dims to {} ({}); privacy: {}",
        trained.store().len(),
        trained.store().dim(),
        args.out,
        human_bytes(bytes.len()),
        trained.store().meta()
    );
    Ok(())
}

fn print_neighbors(node: usize, top_k: usize, neighbors: &[advsgm::store::Neighbor]) {
    println!("top {top_k} neighbors of node {node}:");
    println!("{:>10}  {:>10}  {:>14}", "row", "id", "score");
    for n in neighbors {
        println!("{:>10}  {:>10}  {:>14.6}", n.node, n.id, n.score);
    }
}

fn cmd_query(args: QueryArgs) -> Result<(), String> {
    match &args.source {
        QuerySource::Remote { addr } => {
            let mut client =
                ServeClient::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
            match args.target {
                QueryTarget::Pair { u, v } => {
                    let s = client
                        .score(u as u64, v as u64)
                        .map_err(|e| e.to_string())?;
                    println!("score({u}, {v}) = {s}");
                }
                QueryTarget::Node { node, top_k } => {
                    let neighbors = match args.approx {
                        Some(recall) => client.top_k_approx(node as u64, top_k as u32, recall),
                        None => client.top_k(node as u64, top_k as u32),
                    }
                    .map_err(|e| e.to_string())?;
                    print_neighbors(node, top_k, &neighbors);
                }
            }
        }
        QuerySource::Local { store, index } => {
            let mut service = EmbeddingService::open_with_threads(store, args.threads)
                .map_err(|e| e.to_string())?;
            if let Some(index_path) = index {
                let idx = IvfIndex::load(index_path).map_err(|e| format!("{index_path}: {e}"))?;
                service.attach_index(idx).map_err(|e| e.to_string())?;
            }
            match args.target {
                QueryTarget::Pair { u, v } => {
                    let s = service.score(u, v).map_err(|e| e.to_string())?;
                    println!("score({u}, {v}) = {s}");
                }
                QueryTarget::Node { node, top_k } => {
                    let neighbors = match args.approx {
                        Some(recall) => {
                            let got = service
                                .top_k_approx_with_stats(node, top_k, recall)
                                .map_err(|e| e.to_string())?;
                            println!(
                                "approx (recall target {recall}): scanned {} of {} rows",
                                got.rows_scanned,
                                service.len().saturating_sub(1)
                            );
                            got.neighbors
                        }
                        None => service
                            .batch_top_k(&[node], top_k)
                            .map_err(|e| e.to_string())?
                            .remove(0),
                    };
                    print_neighbors(node, top_k, &neighbors);
                }
            }
        }
    }
    Ok(())
}

fn cmd_index(args: IndexArgs) -> Result<(), String> {
    let store = advsgm::store::EmbeddingStore::load(&args.store)
        .map_err(|e| format!("{}: {e}", args.store))?;
    println!(
        "building IVF index over {} nodes x {} dims...",
        store.len(),
        store.dim()
    );
    let start = std::time::Instant::now();
    let index = IvfIndex::build(&store, args.params).map_err(|e| e.to_string())?;
    let bytes = index.to_bytes();
    std::fs::write(&args.out, &bytes).map_err(|e| format!("{}: {e}", args.out))?;
    println!(
        "built in {:.2?}: {} clusters, {} always-scanned row(s); wrote {} ({})",
        start.elapsed(),
        index.nlist(),
        index.always_scanned(),
        args.out,
        human_bytes(bytes.len())
    );
    for &(target, nprobe) in index.calibration() {
        println!(
            "  recall >= {target:.2}: probe {nprobe}/{} clusters",
            index.nlist()
        );
    }
    Ok(())
}

fn cmd_serve(args: ServeArgs) -> Result<(), String> {
    let mut service = EmbeddingService::open_with_threads(&args.store, args.threads)
        .map_err(|e| format!("{}: {e}", args.store))?;
    if let Some(index_path) = &args.index {
        let idx = IvfIndex::load(index_path).map_err(|e| format!("{index_path}: {e}"))?;
        service.attach_index(idx).map_err(|e| e.to_string())?;
        println!("loaded index {index_path}");
    } else if args.build_index {
        let start = std::time::Instant::now();
        let idx = service
            .build_index(IndexParams::default())
            .map_err(|e| e.to_string())?;
        println!(
            "built in-memory index in {:.2?} ({} clusters)",
            start.elapsed(),
            idx.nlist()
        );
    }
    if args.relaxed {
        service.enable_relaxed_kernels();
    }
    let nodes = service.len();
    let indexed = service.index().is_some();
    let (kernel_backend, kernel_source) = advsgm::linalg::backend::resolution();
    println!(
        "kernel backend {kernel_backend} ({}){}",
        kernel_source.describe(),
        if args.relaxed {
            "; relaxed tier on approximate scans"
        } else {
            ""
        }
    );
    let config = ServeConfig {
        cache_capacity: args.cache,
        max_requests: args.max_requests,
        ..ServeConfig::default()
    };
    let server = Server::bind(service, args.addr.as_str(), config)
        .map_err(|e| format!("{}: {e}", args.addr))?;
    println!(
        "serving {} nodes on {} ({}; stop with `advsgm stop --addr {}`)",
        nodes,
        server.local_addr(),
        if indexed {
            "exact + approximate"
        } else {
            "exact only"
        },
        server.local_addr()
    );
    let stats = server.wait();
    println!(
        "served {} request(s) in {} batch(es): {} cache hit(s), {} error(s)",
        stats.requests, stats.batches, stats.cache_hits, stats.errors
    );
    Ok(())
}

fn cmd_stop(args: StopArgs) -> Result<(), String> {
    let mut client =
        ServeClient::connect(args.addr.as_str()).map_err(|e| format!("{}: {e}", args.addr))?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("server at {} acknowledged shutdown", args.addr);
    Ok(())
}

fn cmd_info(args: InfoArgs) -> Result<(), String> {
    if args.host {
        let (backend, source) = advsgm::linalg::backend::resolution();
        println!("host:");
        println!("  arch        {}", std::env::consts::ARCH);
        let features: Vec<String> = advsgm::linalg::backend::host_features()
            .into_iter()
            .map(|(name, detected)| {
                if detected {
                    name.to_string()
                } else {
                    format!("!{name}")
                }
            })
            .collect();
        println!("  features    {}", features.join(" "));
        println!("  kernels     {backend} ({})", source.describe());
    }
    let Some(path) = &args.store else {
        return Ok(());
    };
    // `info` is deliberately format-level introspection, so it reads the
    // raw bytes and the internals `format` module alongside the service.
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let size = bytes.len();
    let service = EmbeddingService::from_store(
        advsgm::store::EmbeddingStore::from_bytes(&bytes).map_err(|e| e.to_string())?,
    );
    println!("{path}:");
    println!(
        "  format      .aemb v{}",
        advsgm::store::format::FORMAT_VERSION
    );
    println!("  size        {}", human_bytes(size));
    println!("  checksum    ok (crc32)");
    println!("  nodes       {}", service.len());
    println!("  dim         {}", service.dim());
    println!("  privacy     {}", service.privacy());
    Ok(())
}

fn human_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    // ---- train ----

    #[test]
    fn train_happy_path_sets_every_flag() {
        let a = parse_train(&toks(
            "--out e.aemb --dataset wiki --scale 0.5 --variant dp-sgm --epsilon 2 \
             --delta 1e-6 --sigma 3 --epochs 7 --dim 32 --batch-size 64 --lr 0.05 \
             --threads 4 --shard-size 16 --seed 9 --checkpoint-every 2 --checkpoint c.actk",
        ))
        .unwrap();
        assert_eq!(a.out, "e.aemb");
        assert_eq!(a.dataset, "wiki");
        assert_eq!(a.scale, 0.5);
        let cfg = a.builder.config();
        assert_eq!(cfg.variant, ModelVariant::DpSgm);
        assert_eq!(cfg.epsilon, 2.0);
        assert_eq!(cfg.delta, 1e-6);
        assert_eq!(cfg.sigma, 3.0);
        assert_eq!(cfg.epochs, 7);
        assert_eq!(a.epochs_explicit, Some(7));
        assert_eq!(cfg.dim, 32);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.eta_d, 0.05);
        assert_eq!(cfg.eta_g, 0.05, "--lr drives both learning rates");
        assert_eq!(cfg.num_threads, 4);
        assert_eq!(cfg.shard_size, 16);
        assert_eq!(cfg.seed, 9);
        assert_eq!(a.checkpoint_every.map(NonZeroUsize::get), Some(2));
        assert_eq!(a.checkpoint_path.as_deref(), Some("c.actk"));
        cfg.validate().unwrap();
    }

    #[test]
    fn train_defaults_are_quick() {
        let a = parse_train(&toks("--out e.aemb")).unwrap();
        assert_eq!(a.builder.config().epochs, 5);
        assert_eq!(a.epochs_explicit, None);
        assert_eq!(a.builder.config().batch_size, 128);
        assert_eq!(a.checkpoint_every, None);
        assert!(a.resume.is_none());
    }

    #[test]
    fn train_requires_out() {
        let err = parse_train(&toks("--dataset ppi")).unwrap_err();
        assert!(err.contains("--out is required"), "{err}");
    }

    #[test]
    fn train_rejects_unknown_flag() {
        let err = parse_train(&toks("--out e.aemb --bogus 3")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn train_rejects_missing_value() {
        for flag in ["--out", "--epochs", "--batch-size", "--lr", "--resume"] {
            let err = parse_train(&toks(flag)).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn train_rejects_out_of_range_numerics() {
        for (cmd, needle) in [
            ("--out e --scale 0", "--scale must be in (0,1]"),
            ("--out e --scale 1.5", "--scale must be in (0,1]"),
            ("--out e --batch-size 0", "--batch-size must be positive"),
            ("--out e --lr 0", "--lr must be positive"),
            ("--out e --lr -0.5", "--lr must be positive"),
            ("--out e --lr inf", "--lr must be positive and finite"),
            (
                "--out e --checkpoint-every 0",
                "--checkpoint-every must be positive",
            ),
        ] {
            let err = parse_train(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
        }
    }

    #[test]
    fn train_rejects_typed_parameter_violations() {
        // The api newtypes reject these at parse time — the flag name and
        // the api's own constraint both appear in the message.
        for (cmd, needle) in [
            ("--out e --epsilon 0", "invalid parameter epsilon"),
            ("--out e --epsilon -2", "invalid parameter epsilon"),
            ("--out e --epsilon inf", "invalid parameter epsilon"),
            ("--out e --delta 0", "invalid parameter delta"),
            ("--out e --delta 1", "invalid parameter delta"),
            ("--out e --sigma 0", "invalid parameter sigma"),
            ("--out e --dim 0", "invalid parameter dim"),
        ] {
            let err = parse_train(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
            let flag = cmd.split_whitespace().nth(2).unwrap();
            assert!(err.contains(flag), "{cmd}: {err}");
        }
    }

    #[test]
    fn train_parses_graph_and_partitions() {
        let a = parse_train(&toks("--out e.aemb --graph g.agph --partitions 4")).unwrap();
        assert_eq!(a.graph.as_deref(), Some("g.agph"));
        assert_eq!(a.partitions, 4);
        // Not model flags: the trajectory is partition-invariant, so both
        // stay legal alongside --resume.
        let a = parse_train(&toks(
            "--out e.aemb --resume c.actk --graph g.agph --partitions 2",
        ))
        .unwrap();
        assert_eq!(a.partitions, 2);
        assert!(a.resume.is_some());
    }

    // ---- convert ----

    #[test]
    fn convert_happy_path_sets_every_flag() {
        let a = parse_convert(&toks(
            "--out g.agph --dataset wiki --scale 0.5 --seed 9 --buckets 8",
        ))
        .unwrap();
        assert_eq!(a.out, "g.agph");
        assert_eq!(a.dataset, "wiki");
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 9);
        assert_eq!(a.buckets, 8);
        assert!(a.edges.is_none());
    }

    #[test]
    fn convert_defaults_and_rejections() {
        let a = parse_convert(&toks("--out g.agph")).unwrap();
        assert_eq!((a.buckets, a.seed, a.scale), (1, 0, 0.1));
        let err = parse_convert(&toks("--dataset ppi")).unwrap_err();
        assert!(err.contains("--out is required"), "{err}");
        let err = parse_convert(&toks("--out g.agph --buckets 0")).unwrap_err();
        assert!(err.contains("--buckets must be positive"), "{err}");
        let err = parse_convert(&toks("--out g.agph --bogus 1")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn train_rejects_unparseable_numerics() {
        for cmd in [
            "--out e --epochs many",
            "--out e --dim 3.5",
            "--out e --batch-size -2",
            "--out e --epsilon six",
            "--out e --seed 0x12",
        ] {
            assert!(parse_train(&toks(cmd)).is_err(), "{cmd} should fail");
        }
    }

    #[test]
    fn train_rejects_unknown_variant() {
        let err = parse_train(&toks("--out e --variant gpt")).unwrap_err();
        assert!(err.contains("unknown variant"), "{err}");
    }

    #[test]
    fn threads_flag_maps_to_with_threads_and_overrides_env() {
        // --threads N lands in AdvSgmConfig::num_threads via the builder's
        // with_threads mapping...
        let pinned = parse_train(&toks("--out e --threads 3")).unwrap();
        assert_eq!(pinned.builder.config().num_threads, 3);
        let auto = parse_train(&toks("--out e")).unwrap();
        assert_eq!(auto.builder.config().num_threads, 0, "default is auto");

        // ...and the precedence is: explicit flag > ADVSGM_THREADS > 1.
        // (This is the only test in this binary touching the variable.)
        std::env::set_var("ADVSGM_THREADS", "7");
        let explicit = pinned.builder.config().effective_threads();
        let deferred = auto.builder.config().effective_threads();
        std::env::remove_var("ADVSGM_THREADS");
        assert_eq!(explicit, 3, "--threads N overrides ADVSGM_THREADS");
        assert_eq!(deferred, 7, "--threads unset defers to ADVSGM_THREADS");
        assert_eq!(
            auto.builder.config().effective_threads(),
            1,
            "both unset falls back to 1 thread"
        );
    }

    #[test]
    fn kernels_env_resolution_precedence() {
        use advsgm::linalg::backend::{resolve_backend, Backend, BackendResolution};
        // Mirror of the --threads precedence table, for ADVSGM_KERNELS
        // (resolve_backend is pure in its argument, so no env mutation).
        // Unset or blank: auto-detect.
        assert_eq!(
            resolve_backend(None),
            (Backend::detect(), BackendResolution::Detected)
        );
        assert_eq!(
            resolve_backend(Some("  ")),
            (Backend::detect(), BackendResolution::Detected)
        );
        // A valid, supported name wins (scalar is supported everywhere;
        // names are case-insensitive and trimmed).
        assert_eq!(
            resolve_backend(Some(" Scalar ")),
            (Backend::Scalar, BackendResolution::EnvSelected)
        );
        // A known backend the host lacks degrades to detection.
        let missing = if cfg!(target_arch = "aarch64") {
            "avx2"
        } else {
            "neon"
        };
        assert_eq!(
            resolve_backend(Some(missing)),
            (Backend::detect(), BackendResolution::EnvUnsupported)
        );
        // Gibberish degrades to detection too, flagged as invalid.
        assert_eq!(
            resolve_backend(Some("sse9")),
            (Backend::detect(), BackendResolution::EnvInvalid)
        );
    }

    #[test]
    fn resume_pins_the_model_configuration() {
        // Dataset/epochs/checkpoint flags may accompany --resume...
        let a = parse_train(&toks(
            "--out e.aemb --resume c.actk --dataset wiki --scale 0.2 --epochs 9 \
             --checkpoint-every 1",
        ))
        .unwrap();
        assert_eq!(a.resume.as_deref(), Some("c.actk"));
        assert_eq!(a.epochs_explicit, Some(9));
        // ...but model flags are rejected, naming the offenders.
        for flag in [
            "--variant advsgm",
            "--epsilon 3",
            "--sigma 2",
            "--dim 64",
            "--batch-size 32",
            "--lr 0.2",
            "--threads 2",
            "--shard-size 8",
            "--seed 4",
        ] {
            let cmd = format!("--out e.aemb --resume c.actk {flag}");
            let err = parse_train(&toks(&cmd)).unwrap_err();
            assert!(
                err.contains("--resume pins the model configuration"),
                "{flag}: {err}"
            );
            assert!(
                err.contains(flag.split_whitespace().next().unwrap()),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn resume_honours_partitions_or_refuses_them_typed() {
        let dir = std::env::temp_dir().join(format!("advsgm_cli_resume_p_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).display().to_string();
        let model = "--scale 0.05 --seed 3 --epsilon 100 --dim 8 --batch-size 32";
        let train = |cmd: String| cmd_train(parse_train(&toks(&cmd)).unwrap());

        // A sequential checkpoint resumes out of core at --partitions 4
        // and lands on the uninterrupted run's bytes.
        let full = path("full.aemb");
        train(format!("--out {full} --epochs 4 --threads 1 {model}")).unwrap();
        let seq = path("seq.aemb");
        train(format!(
            "--out {seq} --epochs 2 --threads 1 --checkpoint-every 2 {model}"
        ))
        .unwrap();
        let resumed = path("resumed.aemb");
        let args = parse_train(&toks(&format!(
            "--out {resumed} --resume {seq}.actk --epochs 4 --partitions 4 --scale 0.05"
        )))
        .unwrap();
        let (graph, ckpt) = train_inputs(&args).unwrap();
        let pipeline = train_pipeline(&args, &graph, ckpt).unwrap();
        assert_eq!(pipeline.partitions(), 4, "the hint must not be dropped");
        run_training(&args, pipeline).unwrap();
        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&resumed).unwrap()
        );

        // A sharded checkpoint cannot resume out of core: a typed error.
        let sharded = path("sharded.aemb");
        train(format!(
            "--out {sharded} --epochs 2 --threads 2 --checkpoint-every 2 {model}"
        ))
        .unwrap();
        let err = train(format!(
            "--out {resumed} --resume {sharded}.actk --partitions 2 --scale 0.05"
        ))
        .unwrap_err();
        assert!(err.contains("cannot resume checkpoint"), "{err}");
        assert!(err.contains("sharded"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitions_above_the_node_count_are_refused_typed() {
        let dir = std::env::temp_dir().join(format!("advsgm_cli_big_p_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("ring.edges").display().to_string();
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        let out = dir.join("ring.aemb").display().to_string();
        let train = |p: u64| {
            cmd_train(
                parse_train(&toks(&format!(
                    "--out {out} --graph {edges} --epochs 1 --threads 1 --partitions {p}"
                )))
                .unwrap(),
            )
        };
        train(4).unwrap();
        for p in [5, 4_000_000_000] {
            let err = train(p).unwrap_err();
            assert!(err.contains("partitions"), "{err}");
            assert!(err.contains("4 nodes"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- audit ----

    #[test]
    fn audit_defaults_are_quick_and_writable() {
        let a = parse_audit(&toks("")).unwrap();
        assert_eq!(a.out, "results/AUDIT_membership.json");
        assert_eq!((a.dataset.as_str(), a.scale), ("ppi", 0.05));
        assert_eq!(a.builder.config().variant, ModelVariant::AdvSgm);
        assert_eq!(a.builder.config().dim, 32);
        assert_eq!(a.builder.config().epochs, 5);
        assert_eq!((a.cfg.targets, a.cfg.runs_per_world), (3, 5));
        assert_eq!((a.cfg.confidence, a.cfg.test_fraction), (0.95, 0.1));
        assert!(a.ablation, "the sigma->0 check is on by default");
    }

    #[test]
    fn audit_happy_path_sets_every_flag() {
        let a = parse_audit(&toks(
            "--out r.json --dataset wiki --scale 0.2 --variant advsgm --epsilon 2 \
             --delta 1e-6 --sigma 3 --epochs 7 --dim 16 --batch-size 64 --lr 0.05 \
             --seed 9 --threads 4 --targets 2 --runs 6 --test-fraction 0.2 \
             --confidence 0.9 --no-ablation",
        ))
        .unwrap();
        assert_eq!(a.out, "r.json");
        assert_eq!((a.dataset.as_str(), a.scale), ("wiki", 0.2));
        let cfg = a.builder.config();
        assert_eq!((cfg.epsilon, cfg.delta, cfg.sigma), (2.0, 1e-6, 3.0));
        assert_eq!((cfg.epochs, cfg.dim, cfg.batch_size), (7, 16, 64));
        assert_eq!(cfg.eta_d, 0.05);
        assert_eq!(cfg.seed, 9, "--seed drives the builder...");
        assert_eq!(a.cfg.seed, 9, "...and the harness derivation chain");
        assert_eq!(a.cfg.delta, 1e-6, "--delta states the bound's delta too");
        assert_eq!(a.cfg.threads, 4);
        assert_eq!((a.cfg.targets, a.cfg.runs_per_world), (2, 6));
        assert_eq!((a.cfg.test_fraction, a.cfg.confidence), (0.2, 0.9));
        assert!(!a.ablation);
    }

    #[test]
    fn audit_rejects_bad_geometry_at_parse_time() {
        for (cmd, needle) in [
            ("--targets 0", "targets"),
            ("--runs 1", "runs_per_world"),
            ("--confidence 1.0", "confidence"),
            ("--test-fraction 0", "test_fraction"),
        ] {
            let err = parse_audit(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
            assert!(err.contains("invalid audit parameter"), "{cmd}: {err}");
        }
    }

    #[test]
    fn audit_rejects_bad_model_flags_and_unknowns() {
        assert!(parse_audit(&toks("--epsilon 0"))
            .unwrap_err()
            .contains("invalid parameter epsilon"));
        assert!(parse_audit(&toks("--scale 2"))
            .unwrap_err()
            .contains("--scale must be in (0,1]"));
        assert!(parse_audit(&toks("--resume c.actk"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_audit(&toks("--runs"))
            .unwrap_err()
            .contains("needs a value"));
    }

    // ---- query ----

    #[test]
    fn query_node_happy_path() {
        let a = parse_query(&toks("--store e.aemb --node 3 --top-k 7 --threads 2")).unwrap();
        assert_eq!(
            a.source,
            QuerySource::Local {
                store: "e.aemb".into(),
                index: None
            }
        );
        assert_eq!(a.target, QueryTarget::Node { node: 3, top_k: 7 });
        assert_eq!(a.threads, 2);
        assert_eq!(a.approx, None);
    }

    #[test]
    fn query_local_approx_needs_an_index() {
        let err = parse_query(&toks("--store e.aemb --node 3 --approx 0.9")).unwrap_err();
        assert!(err.contains("--approx needs an ANN index"), "{err}");
        let a = parse_query(&toks("--store e.aemb --index e.aidx --node 3 --approx 0.9")).unwrap();
        assert_eq!(a.approx, Some(0.9));
        assert_eq!(
            a.source,
            QuerySource::Local {
                store: "e.aemb".into(),
                index: Some("e.aidx".into())
            }
        );
        for bad in ["--approx 1.5", "--approx -0.1", "--approx nan"] {
            let cmd = format!("--store e.aemb --index e.aidx --node 3 {bad}");
            assert!(parse_query(&toks(&cmd)).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn query_remote_excludes_local_flags() {
        let a = parse_query(&toks("--remote 127.0.0.1:7878 --node 3 --approx 0.95")).unwrap();
        assert_eq!(
            a.source,
            QuerySource::Remote {
                addr: "127.0.0.1:7878".into()
            }
        );
        assert_eq!(a.approx, Some(0.95));
        for (cmd, needle) in [
            ("--remote h:1 --store e.aemb --node 1", "not both"),
            ("--remote h:1 --index e.aidx --node 1", "local-store flag"),
            ("--remote h:1 --threads 2 --node 1", "local-store flag"),
        ] {
            let err = parse_query(&toks(cmd)).unwrap_err();
            assert!(err.contains(needle), "{cmd}: {err}");
        }
    }

    #[test]
    fn query_pair_happy_path() {
        let a = parse_query(&toks("--store e.aemb --pair 3 8")).unwrap();
        assert_eq!(a.target, QueryTarget::Pair { u: 3, v: 8 });
    }

    #[test]
    fn query_rejects_node_and_pair_together() {
        let err = parse_query(&toks("--store e.aemb --node 1 --pair 2 3")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // Order must not matter.
        let err = parse_query(&toks("--store e.aemb --pair 2 3 --node 1")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn query_requires_a_target_and_store() {
        let err = parse_query(&toks("--store e.aemb")).unwrap_err();
        assert!(err.contains("need --node U or --pair U V"), "{err}");
        let err = parse_query(&toks("--node 1")).unwrap_err();
        assert!(err.contains("--store or --remote is required"), "{err}");
    }

    #[test]
    fn query_rejects_unknown_flags_and_bad_numbers() {
        assert!(parse_query(&toks("--store e --node 1 --frobnicate"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_query(&toks("--store e --node minus-one")).is_err());
        assert!(
            parse_query(&toks("--store e --pair 1")).is_err(),
            "pair needs two values"
        );
        assert!(parse_query(&toks("--store e --node 1 --top-k -4")).is_err());
    }

    // ---- info ----

    #[test]
    fn info_happy_and_sad_paths() {
        let a = parse_info(&toks("--store e.aemb")).unwrap();
        assert_eq!(a.store.as_deref(), Some("e.aemb"));
        assert!(!a.host);
        assert!(parse_info(&toks(""))
            .unwrap_err()
            .contains("pass --store PATH and/or --host"));
        assert!(parse_info(&toks("--wat"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_info(&toks("--store"))
            .unwrap_err()
            .contains("needs a value"));
    }

    // ---- index ----

    #[test]
    fn index_happy_path_and_defaults() {
        let a = parse_index(&toks(
            "--store e.aemb --out e.aidx --nlist 64 --kmeans-iters 3 --sample-queries 16",
        ))
        .unwrap();
        assert_eq!(a.store, "e.aemb");
        assert_eq!(a.out, "e.aidx");
        assert_eq!(a.params.nlist, 64);
        assert_eq!(a.params.kmeans_iters, 3);
        assert_eq!(a.params.sample_queries, 16);

        let d = parse_index(&toks("--store e.aemb --out e.aidx")).unwrap();
        assert_eq!(d.params, IndexParams::default());
    }

    #[test]
    fn index_rejects_bad_arguments() {
        assert!(parse_index(&toks("--out e.aidx"))
            .unwrap_err()
            .contains("--store is required"));
        assert!(parse_index(&toks("--store e.aemb"))
            .unwrap_err()
            .contains("--out is required"));
        assert!(parse_index(&toks("--store e --out o --kmeans-iters 0"))
            .unwrap_err()
            .contains("must be positive"));
        assert!(parse_index(&toks("--store e --out o --sample-queries 0"))
            .unwrap_err()
            .contains("must be positive"));
        assert!(parse_index(&toks("--store e --out o --wat"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    // ---- serve / stop ----

    #[test]
    fn serve_happy_path_and_defaults() {
        let a = parse_serve(&toks(
            "--store e.aemb --index e.aidx --addr 0.0.0.0:9000 --threads 4 --cache 99 \
             --max-requests 1000 --relaxed",
        ))
        .unwrap();
        assert_eq!(a.store, "e.aemb");
        assert_eq!(a.index.as_deref(), Some("e.aidx"));
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.threads, 4);
        assert_eq!(a.cache, 99);
        assert_eq!(a.max_requests, Some(1000));
        assert!(a.relaxed);

        let d = parse_serve(&toks("--store e.aemb")).unwrap();
        assert_eq!(d.addr, "127.0.0.1:7878");
        assert_eq!(d.cache, 1024);
        assert_eq!(d.max_requests, None);
        assert!(!d.build_index);
        assert!(!d.relaxed, "relaxed tier is opt-in");
    }

    #[test]
    fn info_host_flag_with_and_without_store() {
        let h = parse_info(&toks("--host")).unwrap();
        assert_eq!(
            h,
            InfoArgs {
                store: None,
                host: true
            }
        );
        let both = parse_info(&toks("--store e.aemb --host")).unwrap();
        assert_eq!(
            both,
            InfoArgs {
                store: Some("e.aemb".into()),
                host: true
            }
        );
    }

    #[test]
    fn serve_rejects_conflicting_index_flags() {
        let err = parse_serve(&toks("--store e.aemb --index e.aidx --build-index")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        assert!(parse_serve(&toks("--index e.aidx"))
            .unwrap_err()
            .contains("--store is required"));
        assert!(parse_serve(&toks("--store e --max-requests 0"))
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn stop_requires_addr() {
        assert_eq!(
            parse_stop(&toks("--addr 127.0.0.1:7878")).unwrap().addr,
            "127.0.0.1:7878"
        );
        assert!(parse_stop(&toks(""))
            .unwrap_err()
            .contains("--addr is required"));
        assert!(parse_stop(&toks("--wat"))
            .unwrap_err()
            .contains("unknown flag"));
    }
}
