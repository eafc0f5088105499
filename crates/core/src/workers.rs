//! Threaded tensor-parallel execution: one worker thread per GPU shard
//! (paper Figure 7 and §4.4.2).
//!
//! Pensieve's architecture is a single scheduler plus one worker per GPU;
//! each worker owns its model partition and its slice of the KV cache and
//! executes the scheduler's plan. [`ThreadedTpEngine`] reproduces that
//! structure with real threads: each worker owns a
//! [`ShardRunner`] (weight slices +
//! paged KV pool + block tables) and communicates with the scheduler over
//! `std::sync::mpsc` channels; the scheduler performs the replicated work
//! (embeddings, norms, residuals) and the all-reduce summations between
//! the column- and row-parallel halves of every layer.
//!
//! Partial sums are accumulated in fixed shard order, so results are
//! deterministic and bit-identical to the single-threaded
//! [`TpModel`].

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pensieve_kernels::model::{SegmentInput, TinyModel};
use pensieve_kernels::ops::argmax;
use pensieve_kernels::paged::OutOfBlocks;
use pensieve_kernels::tp::{ReplicatedWeights, ShardRunner, TpModel};
use pensieve_kernels::Matrix;
use pensieve_model::ModelConfig;

use crate::error::WorkerError;

/// Scheduler-to-worker commands.
enum Cmd {
    BeginPass {
        conv: u64,
        segments: Vec<(usize, usize)>,
    },
    AttnPartial {
        layer: usize,
        xn: Arc<Matrix>,
    },
    MlpPartial {
        layer: usize,
        xn: Arc<Matrix>,
    },
    LmHead {
        hidden: Arc<Vec<f32>>,
    },
    Shutdown,
}

/// Worker-to-scheduler responses, tagged with the worker's shard index.
enum Res {
    Began(Result<(), OutOfBlocks>),
    Partial(usize, Matrix),
    Logits(usize, Vec<f32>),
}

/// A multi-worker tensor-parallel serving engine over real threads.
pub struct ThreadedTpEngine {
    replicated: ReplicatedWeights,
    cmd_txs: Vec<Sender<Cmd>>,
    res_rx: Receiver<Res>,
    handles: Vec<JoinHandle<()>>,
    /// Context length per conversation (scheduler-side bookkeeping).
    contexts: HashMap<u64, usize>,
    /// Each conversation's not-yet-processed final token from its
    /// previous turn.
    tails: HashMap<u64, Vec<u32>>,
    /// Fail-stop flag: set on the first detected shard failure. A fleet
    /// with a dead shard can never complete an all-reduce, and replies
    /// from the surviving shards may still sit in `res_rx`; poisoning
    /// makes every later call fail fast with a typed error instead of
    /// hanging or consuming stale partials.
    poisoned: bool,
    /// Passive trace sink; `None` (the default) records nothing. The
    /// functional engine has no simulated clock, so its `TpPass` events
    /// carry a logical pass counter instead of a timestamp.
    recorder: Option<pensieve_obs::SharedRecorder>,
    /// Forward passes issued, for `TpPass` event numbering.
    pass_count: u64,
}

impl ThreadedTpEngine {
    /// Shards `model` across `num_shards` worker threads.
    ///
    /// # Panics
    ///
    /// Panics under the same divisibility conditions as
    /// [`TpModel::new`].
    #[must_use]
    pub fn new(
        model: &TinyModel,
        num_shards: usize,
        block_size: usize,
        blocks_per_shard: usize,
    ) -> Self {
        Self::with_intra_threads(model, num_shards, block_size, blocks_per_shard, 1)
    }

    /// Like [`ThreadedTpEngine::new`], but each worker additionally fans
    /// its own per-layer shard math (blocked GEMM row partitions,
    /// attention (sequence, KV-head) partitions) out over `intra_threads`
    /// scoped threads.
    ///
    /// The two axes compose: `num_shards` splits the model Megatron-style,
    /// `intra_threads` splits each shard's operators. Results are
    /// bit-identical at every combination — partials are accumulated in
    /// fixed shard order and intra-operator partitions are merged in fixed
    /// partition order.
    ///
    /// # Panics
    ///
    /// Panics under the same divisibility conditions as [`TpModel::new`].
    #[must_use]
    pub fn with_intra_threads(
        model: &TinyModel,
        num_shards: usize,
        block_size: usize,
        blocks_per_shard: usize,
        intra_threads: usize,
    ) -> Self {
        let (replicated, mut shards) =
            TpModel::new(model, num_shards, block_size, blocks_per_shard).into_parts();
        for shard in &mut shards {
            shard.set_threads(intra_threads);
        }
        let (res_tx, res_rx) = channel();
        let mut cmd_txs = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for (idx, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx): (Sender<Cmd>, Receiver<Cmd>) = channel();
            let res_tx = res_tx.clone();
            cmd_txs.push(tx);
            handles.push(std::thread::spawn(move || {
                worker_loop(idx, &mut shard, &rx, &res_tx)
            }));
        }
        ThreadedTpEngine {
            replicated,
            cmd_txs,
            res_rx,
            handles,
            contexts: HashMap::new(),
            tails: HashMap::new(),
            poisoned: false,
            recorder: None,
            pass_count: 0,
        }
    }

    /// Attaches a trace recorder; each forward pass then records a
    /// `TpPass` event. Recording is passive and does not change results.
    pub fn set_recorder(&mut self, recorder: Option<pensieve_obs::SharedRecorder>) {
        self.recorder = recorder;
    }

    /// Number of worker threads.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.cmd_txs.len()
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        self.replicated.config()
    }

    /// True if a shard failure has been detected; every subsequent call
    /// returns [`WorkerError::ShardDisconnected`] immediately.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Test/chaos hook: shuts down one worker shard as if its process
    /// crashed. The next forward pass detects the dead shard via channel
    /// disconnect and fails with a typed error instead of hanging.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn kill_shard(&mut self, shard: usize) {
        // A send error here means the shard is already gone — the goal
        // state, so it is not an error.
        let _ = self.cmd_txs[shard].send(Cmd::Shutdown);
        if let Some(h) = self.handles.get_mut(shard) {
            // Join so the crash is fully materialized (the worker's
            // command receiver is dropped) before the caller's next
            // pass. JoinHandle::join consumes, so swap in a no-op thread.
            let dead = std::mem::replace(h, std::thread::spawn(|| ()));
            let _ = dead.join();
        }
    }

    /// Sends one command to every shard, detecting dead shards at the
    /// send side.
    fn broadcast(&mut self, mut make: impl FnMut() -> Cmd) -> Result<(), WorkerError> {
        for (i, tx) in self.cmd_txs.iter().enumerate() {
            if tx.send(make()).is_err() {
                self.poisoned = true;
                return Err(WorkerError::ShardDisconnected { shard: Some(i) });
            }
        }
        Ok(())
    }

    /// Receives one response, detecting a fleet-wide disconnect.
    fn recv_res(&mut self) -> Result<Res, WorkerError> {
        self.res_rx.recv().map_err(|_| {
            self.poisoned = true;
            WorkerError::ShardDisconnected { shard: None }
        })
    }

    /// Collects one tagged partial from every worker, summing into shard
    /// order for determinism.
    fn collect_partials(&mut self, tokens: usize, width: usize) -> Result<Matrix, WorkerError> {
        let n = self.cmd_txs.len();
        let mut by_shard: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match self.recv_res()? {
                Res::Partial(idx, m) => by_shard[idx] = Some(m),
                _ => {
                    self.poisoned = true;
                    return Err(WorkerError::Protocol("expected partial"));
                }
            }
        }
        let mut acc = Matrix::zeros(tokens, width);
        for m in by_shard {
            let Some(m) = m else {
                self.poisoned = true;
                return Err(WorkerError::Protocol("duplicate shard partial"));
            };
            for (a, p) in acc.as_mut_slice().iter_mut().zip(m.as_slice()) {
                *a += p;
            }
        }
        Ok(acc)
    }

    /// One tensor-parallel forward pass over the worker fleet, returning
    /// the last token's logits. Segment semantics match
    /// [`TinyModel::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkerError::OutOfBlocks`] if any worker's KV pool is
    /// exhausted, and [`WorkerError::ShardDisconnected`] if a worker
    /// thread died (detected via channel disconnect — the pass fails with
    /// a typed error instead of hanging on the dead shard's reply). After
    /// a disconnect the engine is poisoned: all later calls fail fast.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn forward_seq(
        &mut self,
        conv: u64,
        segments: &[SegmentInput],
    ) -> Result<Vec<f32>, WorkerError> {
        assert!(!segments.is_empty());
        if self.poisoned {
            return Err(WorkerError::ShardDisconnected { shard: None });
        }
        let shapes: Vec<(usize, usize)> = segments
            .iter()
            .map(|s| (s.start_pos, s.tokens.len()))
            .collect();
        self.broadcast(|| Cmd::BeginPass {
            conv,
            segments: shapes.clone(),
        })?;
        let mut begin_err: Option<OutOfBlocks> = None;
        for _ in 0..self.cmd_txs.len() {
            match self.recv_res()? {
                Res::Began(Err(e)) => begin_err = Some(e),
                Res::Began(Ok(())) => {}
                _ => {
                    self.poisoned = true;
                    return Err(WorkerError::Protocol("expected begin ack"));
                }
            }
        }
        if let Some(e) = begin_err {
            return Err(WorkerError::OutOfBlocks(e));
        }

        let h = self.replicated.config().hidden_size;
        let layers = self.replicated.config().num_layers;
        let total_q: usize = segments.iter().map(|s| s.tokens.len()).sum();
        {
            use pensieve_obs::Recorder as _;
            if self.recorder.enabled() {
                self.recorder.record(pensieve_obs::TraceEvent::TpPass {
                    at: pensieve_model::SimTime::ZERO,
                    pass: self.pass_count,
                    conv,
                    query_tokens: total_q,
                    shards: self.cmd_txs.len(),
                });
            }
            self.pass_count += 1;
        }
        let mut x = Matrix::zeros(total_q, h);
        let mut row = 0;
        for seg in segments {
            for (j, &tok) in seg.tokens.iter().enumerate() {
                x.row_mut(row)
                    .copy_from_slice(&self.replicated.embed_token(tok, seg.start_pos + j));
                row += 1;
            }
        }
        for l in 0..layers {
            let xn = Arc::new(self.replicated.norm1(l, &x));
            self.broadcast(|| Cmd::AttnPartial {
                layer: l,
                xn: Arc::clone(&xn),
            })?;
            let acc = self.collect_partials(total_q, h)?;
            for (xv, av) in x.as_mut_slice().iter_mut().zip(acc.as_slice()) {
                *xv += av;
            }
            let xn = Arc::new(self.replicated.norm2(l, &x));
            self.broadcast(|| Cmd::MlpPartial {
                layer: l,
                xn: Arc::clone(&xn),
            })?;
            let acc = self.collect_partials(total_q, h)?;
            for (xv, av) in x.as_mut_slice().iter_mut().zip(acc.as_slice()) {
                *xv += av;
            }
        }
        let hidden = Arc::new(self.replicated.final_norm(x.row(total_q - 1)));
        self.broadcast(|| Cmd::LmHead {
            hidden: Arc::clone(&hidden),
        })?;
        let n = self.cmd_txs.len();
        let mut slices: Vec<Option<Vec<f32>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match self.recv_res()? {
                Res::Logits(idx, v) => slices[idx] = Some(v),
                _ => {
                    self.poisoned = true;
                    return Err(WorkerError::Protocol("expected logits"));
                }
            }
        }
        let mut logits = Vec::with_capacity(self.replicated.config().vocab_size);
        for s in slices {
            let Some(s) = s else {
                self.poisoned = true;
                return Err(WorkerError::Protocol("duplicate shard logits"));
            };
            logits.extend(s);
        }
        Ok(logits)
    }

    /// Serves one conversation turn with greedy decoding, like
    /// [`FunctionalEngine::serve_turn`](crate::functional::FunctionalEngine::serve_turn)
    /// but across the worker fleet.
    ///
    /// # Errors
    ///
    /// Returns [`WorkerError::OutOfBlocks`] when a worker pool is
    /// exhausted (the threaded engine does not implement eviction; size
    /// the pools for the workload) and
    /// [`WorkerError::ShardDisconnected`] when a worker thread died.
    /// The conversation's scheduler-side bookkeeping is only updated on
    /// success, so a failed turn does not corrupt later ones.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `max_new` is zero.
    pub fn serve_turn(
        &mut self,
        conv: u64,
        prompt: &[u32],
        max_new: usize,
    ) -> Result<Vec<u32>, WorkerError> {
        assert!(!prompt.is_empty() && max_new > 0);
        let start = self.contexts.get(&conv).copied().unwrap_or(0);
        // The previous turn's final token was emitted but never processed
        // (its KV is absent); prepend it, exactly like the "tail" the
        // serving engine recomputes with each new prompt. Peek rather
        // than remove: the tail is consumed only if the turn succeeds.
        let mut input = self.tails.get(&conv).cloned().unwrap_or_default();
        input.extend_from_slice(prompt);
        let input_len = input.len();
        let logits = self.forward_seq(
            conv,
            &[SegmentInput {
                tokens: input,
                start_pos: start,
            }],
        )?;
        let mut next = argmax(&logits) as u32;
        let mut generated = vec![next];
        let mut pos = start + input_len;
        for _ in 1..max_new {
            let logits = self.forward_seq(
                conv,
                &[SegmentInput {
                    tokens: vec![next],
                    start_pos: pos,
                }],
            )?;
            next = argmax(&logits) as u32;
            generated.push(next);
            pos += 1;
        }
        self.tails.remove(&conv);
        self.contexts.insert(conv, pos);
        self.tails.insert(conv, vec![next]);
        Ok(generated)
    }
}

impl Drop for ThreadedTpEngine {
    fn drop(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The worker loop: executes scheduler commands against its shard.
fn worker_loop(idx: usize, shard: &mut ShardRunner, rx: &Receiver<Cmd>, res: &Sender<Res>) {
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::BeginPass { conv, segments } => Res::Began(shard.begin_pass(conv, &segments)),
            Cmd::AttnPartial { layer, xn } => Res::Partial(idx, shard.attn_partial(layer, &xn)),
            Cmd::MlpPartial { layer, xn } => Res::Partial(idx, shard.mlp_partial(layer, &xn)),
            Cmd::LmHead { hidden } => Res::Logits(idx, shard.lm_head_partial(&hidden)),
            Cmd::Shutdown => break,
        };
        if res.send(reply).is_err() {
            break; // Scheduler gone; exit quietly.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prompt(seed: u32, len: usize, vocab: u32) -> Vec<u32> {
        (0..len as u32)
            .map(|i| (seed * 41 + i * 13) % vocab)
            .collect()
    }

    /// Two worker threads produce exactly the tokens of the unsharded
    /// stateless reference, across multiple turns.
    #[test]
    fn threaded_tp_matches_dense_reference() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 91);
        let mut engine = ThreadedTpEngine::new(&model, 2, 4, 128);
        assert_eq!(engine.num_shards(), 2);
        let mut full: Vec<u32> = Vec::new();
        for turn in 0..3u32 {
            let p = prompt(turn, 6, cfg.vocab_size as u32);
            let got = engine.serve_turn(1, &p, 4).unwrap();
            full.extend_from_slice(&p);
            // Stateless reference decode on the original model.
            let mut ctx = full.clone();
            let mut expect = Vec::new();
            for _ in 0..4 {
                let logits = model.forward_dense(&ctx);
                let t = argmax(&logits) as u32;
                expect.push(t);
                ctx.push(t);
            }
            assert_eq!(got, expect, "turn {turn}");
            full.extend_from_slice(&got);
        }
    }

    /// Four OPT-family workers, interleaved conversations.
    #[test]
    fn four_workers_interleaved_conversations() {
        let cfg = ModelConfig::tiny_opt();
        let model = TinyModel::new_random(&cfg, 92);
        let mut engine = ThreadedTpEngine::new(&model, 4, 4, 128);
        let vocab = cfg.vocab_size as u32;
        let mut transcripts: HashMap<u64, Vec<u32>> = HashMap::new();
        for round in 0..2u32 {
            for conv in 1..=2u64 {
                let p = prompt(round * 2 + conv as u32, 5, vocab);
                let got = engine.serve_turn(conv, &p, 3).unwrap();
                let t = transcripts.entry(conv).or_default();
                t.extend_from_slice(&p);
                let mut ctx = t.clone();
                let mut expect = Vec::new();
                for _ in 0..3 {
                    let logits = model.forward_dense(&ctx);
                    let tok = argmax(&logits) as u32;
                    expect.push(tok);
                    ctx.push(tok);
                }
                assert_eq!(got, expect, "conv {conv} round {round}");
                t.extend_from_slice(&got);
            }
        }
    }

    /// The threaded engine is bit-identical to the single-threaded TP
    /// orchestrator (fixed-order all-reduce).
    #[test]
    fn threaded_matches_single_threaded_tp() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 93);
        let mut threaded = ThreadedTpEngine::new(&model, 2, 4, 64);
        let mut single = TpModel::new(&model, 2, 4, 64);
        let p = prompt(9, 7, cfg.vocab_size as u32);
        let seg = SegmentInput {
            tokens: p,
            start_pos: 0,
        };
        let a = threaded.forward_seq(5, std::slice::from_ref(&seg)).unwrap();
        let b = single.forward_seq(5, &[seg]).unwrap();
        assert_eq!(a, b, "fixed-order all-reduce must be bit-identical");
    }

    /// Intra-shard data parallelism (scoped worker pool inside each shard)
    /// must not change a single bit of the logits either.
    #[test]
    fn intra_threads_bit_identical() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 96);
        let p = prompt(4, 9, cfg.vocab_size as u32);
        let seg = SegmentInput {
            tokens: p,
            start_pos: 0,
        };
        let mut serial = ThreadedTpEngine::new(&model, 2, 4, 64);
        let base = serial.forward_seq(5, std::slice::from_ref(&seg)).unwrap();
        for intra in [2usize, 4] {
            let mut engine = ThreadedTpEngine::with_intra_threads(&model, 2, 4, 64, intra);
            let got = engine.forward_seq(5, std::slice::from_ref(&seg)).unwrap();
            assert_eq!(got, base, "intra_threads={intra}");
        }
    }

    /// A dead worker shard surfaces as a typed error, never a hang, and
    /// poisons the fleet fail-stop.
    #[test]
    fn dead_shard_yields_typed_error_not_hang() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 94);
        let mut engine = ThreadedTpEngine::new(&model, 2, 4, 64);
        // A healthy turn first.
        let p = prompt(3, 5, cfg.vocab_size as u32);
        engine.serve_turn(1, &p, 2).unwrap();
        assert!(!engine.is_poisoned());
        // Crash shard 1, then try again.
        engine.kill_shard(1);
        let err = engine.serve_turn(1, &p, 2).unwrap_err();
        assert!(
            matches!(err, WorkerError::ShardDisconnected { .. }),
            "got {err}"
        );
        assert!(engine.is_poisoned());
        // Every later call fails fast with the same typed error.
        let err2 = engine
            .forward_seq(
                1,
                &[SegmentInput {
                    tokens: vec![0],
                    start_pos: 0,
                }],
            )
            .unwrap_err();
        assert_eq!(err2, WorkerError::ShardDisconnected { shard: None });
    }

    /// Exhausting the paged pool is a typed, non-poisoning error.
    #[test]
    fn pool_exhaustion_is_typed_and_recoverable() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 95);
        // Tiny pool: 4 blocks of 4 tokens per shard.
        let mut engine = ThreadedTpEngine::new(&model, 2, 4, 4);
        let p = prompt(1, 64, cfg.vocab_size as u32);
        let err = engine.serve_turn(1, &p, 1).unwrap_err();
        assert!(matches!(err, WorkerError::OutOfBlocks(_)), "got {err}");
        // The fleet is not poisoned: the workers are alive and later
        // calls keep returning typed errors instead of hanging (the
        // failed pass's blocks stay installed, so the pool stays full).
        assert!(!engine.is_poisoned());
        let small = prompt(2, 3, cfg.vocab_size as u32);
        let err = engine.serve_turn(2, &small, 1).unwrap_err();
        assert!(matches!(err, WorkerError::OutOfBlocks(_)), "got {err}");
    }
}
