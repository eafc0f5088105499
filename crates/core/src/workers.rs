//! Threaded tensor-parallel execution: one worker thread per GPU shard
//! (paper Figure 7 and §4.4.2).
//!
//! Pensieve's architecture is a single scheduler plus one worker per GPU;
//! each worker owns its model partition and its slice of the KV cache and
//! executes the scheduler's plan. [`ThreadedTpEngine`] reproduces that
//! structure with real threads. Each worker thread owns a [`ShardRunner`]
//! — a weight shard, the paged KV pool and the block tables only it
//! fills — and answers commands over `std::sync::mpsc` channels. The
//! scheduler owns the conversations' bookkeeping and a pointer to the
//! [`ReplicatedWeights`] the shards share, and drives the same layer
//! loop as the unsharded model, [`ReplicatedWeights::forward`]: per
//! [`Stage`] it broadcasts the stage's input, collects one tagged partial
//! per worker into shard order, and the loop reduces them there.
//!
//! Shard order is fixed, so results are deterministic and bit-identical
//! to the single-threaded [`TpModel`].

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pensieve_kernels::model::{ReplicatedWeights, SegmentInput, Stage, TinyModel};
use pensieve_kernels::paged::OutOfBlocks;
use pensieve_kernels::tp::{ShardRunner, TpModel};
use pensieve_kernels::Matrix;
use pensieve_model::ModelConfig;

use crate::error::WorkerError;
use crate::functional::greedy_turn;

/// Scheduler-to-worker commands.
enum Cmd {
    BeginPass {
        conv: u64,
        segments: Vec<(usize, usize)>,
    },
    Partial {
        stage: Stage,
        input: Arc<Matrix>,
    },
    Shutdown,
}

/// Worker-to-scheduler responses.
enum Res {
    Began(Result<(), OutOfBlocks>),
    /// Tagged with the worker's shard index.
    Partial(usize, Matrix),
}

/// A multi-worker tensor-parallel serving engine over real threads.
pub struct ThreadedTpEngine {
    replicated: Arc<ReplicatedWeights>,
    cmd_txs: Vec<Sender<Cmd>>,
    res_rx: Receiver<Res>,
    /// `None` once joined ([`ThreadedTpEngine::kill_shard`]).
    handles: Vec<Option<JoinHandle<()>>>,
    /// Per conversation: its context length and its not-yet-processed
    /// final token from the previous turn (scheduler-side bookkeeping).
    convs: HashMap<u64, (usize, u32)>,
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
        let (replicated, shards) =
            TpModel::new(model, num_shards, block_size, blocks_per_shard).into_parts();
        let (res_tx, res_rx) = channel();
        let mut cmd_txs = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for (idx, mut shard) in shards.into_iter().enumerate() {
            shard.set_threads(intra_threads);
            let (tx, rx): (Sender<Cmd>, Receiver<Cmd>) = channel();
            let res_tx = res_tx.clone();
            cmd_txs.push(tx);
            #[expect(
                clippy::disallowed_methods,
                reason = "the tensor-parallel worker fleet: one long-lived thread per shard"
            )]
            let handle = std::thread::spawn(move || worker_loop(idx, &mut shard, &rx, &res_tx));
            handles.push(Some(handle));
        }
        ThreadedTpEngine {
            replicated,
            cmd_txs,
            res_rx,
            handles,
            convs: HashMap::new(),
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
        // Join so the crash is fully materialized (the worker's command
        // receiver is dropped) before the caller's next pass.
        if let Some(dead) = self.handles[shard].take() {
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

    /// Marks the fleet unusable after a reply the protocol rules out.
    fn protocol_error(&mut self, what: &'static str) -> WorkerError {
        self.poisoned = true;
        WorkerError::Protocol(what)
    }

    /// Receives one response, detecting a fleet-wide disconnect.
    fn recv_res(&mut self) -> Result<Res, WorkerError> {
        self.res_rx.recv().map_err(|_| {
            self.poisoned = true;
            WorkerError::ShardDisconnected { shard: None }
        })
    }

    /// Broadcasts one stage's input and collects every worker's tagged
    /// partial into shard order, for determinism.
    fn partials(&mut self, stage: Stage, input: Matrix) -> Result<Vec<Matrix>, WorkerError> {
        let input = Arc::new(input);
        self.broadcast(|| Cmd::Partial {
            stage,
            input: Arc::clone(&input),
        })?;
        let n = self.cmd_txs.len();
        let mut by_shard: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match self.recv_res()? {
                Res::Partial(idx, m) => by_shard[idx] = Some(m),
                Res::Began(_) => return Err(self.protocol_error("expected partial")),
            }
        }
        let partials: Option<Vec<Matrix>> = by_shard.into_iter().collect();
        partials.ok_or_else(|| self.protocol_error("duplicate shard partial"))
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
        if self.poisoned {
            return Err(WorkerError::ShardDisconnected { shard: None });
        }
        let x = self.replicated.embed(segments.iter());
        let shapes: Vec<_> = segments.iter().map(SegmentInput::shape).collect();
        self.broadcast(|| Cmd::BeginPass {
            conv,
            segments: shapes.clone(),
        })?;
        let mut begin_err: Option<OutOfBlocks> = None;
        for _ in 0..self.cmd_txs.len() {
            match self.recv_res()? {
                Res::Began(Err(e)) => begin_err = Some(e),
                Res::Began(Ok(())) => {}
                Res::Partial(..) => return Err(self.protocol_error("expected begin ack")),
            }
        }
        if let Some(e) = begin_err {
            return Err(WorkerError::OutOfBlocks(e));
        }
        {
            use pensieve_obs::Recorder as _;
            if self.recorder.enabled() {
                self.recorder.record(pensieve_obs::TraceEvent::TpPass {
                    at: pensieve_model::SimTime::ZERO,
                    pass: self.pass_count,
                    conv,
                    query_tokens: x.rows(),
                    shards: self.cmd_txs.len(),
                });
            }
            self.pass_count += 1;
        }
        let (replicated, last) = (Arc::clone(&self.replicated), x.rows() - 1);
        let logits = replicated.forward(x, &[last], |stage, input| self.partials(stage, input))?;
        Ok(logits.row(0).to_vec())
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
        // The previous turn's final token was emitted but never processed
        // (its KV is absent); prepend it, exactly like the "tail" the
        // serving engine recomputes with each new prompt.
        let (start_pos, tail) = match self.convs.get(&conv) {
            Some(&(context, tail)) => (context, Some(tail)),
            None => (0, None),
        };
        let tokens: Vec<u32> = tail.into_iter().chain(prompt.iter().copied()).collect();
        let context = start_pos + tokens.len() + max_new - 1;
        let prefill = vec![SegmentInput { tokens, start_pos }];
        let generated = greedy_turn(prefill, max_new, |segments| {
            self.forward_seq(conv, &segments)
        })?;
        self.convs.insert(conv, (context, generated[max_new - 1]));
        Ok(generated)
    }
}

impl Drop for ThreadedTpEngine {
    fn drop(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
    }
}

/// The worker loop: executes scheduler commands against its shard.
fn worker_loop(idx: usize, shard: &mut ShardRunner, rx: &Receiver<Cmd>, res: &Sender<Res>) {
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::BeginPass { conv, segments } => Res::Began(shard.begin_pass(conv, &segments)),
            Cmd::Partial { stage, input } => Res::Partial(idx, shard.partial(stage, &input)),
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
    use pensieve_kernels::ops::argmax;

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
