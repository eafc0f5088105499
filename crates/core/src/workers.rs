//! Threaded tensor-parallel execution: one worker thread per GPU shard
//! (paper Figure 7 and §4.4.2).
//!
//! Pensieve's architecture is a single scheduler plus one worker per GPU;
//! each worker owns its model partition and its slice of the KV cache and
//! executes the scheduler's plan. [`ShardFleet`] reproduces that
//! structure with real threads, as a [`PagedModel`] the functional
//! engine's executor drives like any other. Each worker thread owns a
//! [`ShardRunner`] — a weight shard and its KV-head slice of every block
//! — and answers commands over `std::sync::mpsc` channels. Each tick the
//! executor's byte moves reach every worker as reads and writes of its
//! slice of a block; then, per [`Stage`] of [`ReplicatedWeights::forward`],
//! the fleet broadcasts the stage's input with the tick's batch (one pass
//! prologue and the tables it reads, shared, not copied, between workers)
//! and collects one tagged partial per worker into shard order, where
//! that loop reduces them.
//!
//! Block ids, tables and every scheduling decision stay with the one
//! scheduler: [`ThreadedTpEngine`] is the functional engine over a fleet.
//! Shard order is fixed, so results are deterministic and bit-identical
//! to the single-threaded [`TpModel`].

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pensieve_kernels::model::{
    PagedModel, Pass, ReplicatedWeights, SeqInput, Stage, Stream, TinyModel,
};
use pensieve_kernels::paged::{BlockId, BlockTable, PagedKvCache};
use pensieve_kernels::tp::{gather_block, ShardRunner, TpModel};
use pensieve_kernels::Matrix;
use pensieve_kvcache::SessionId;
use pensieve_model::ModelConfig;

use crate::error::WorkerError;
use crate::functional::{FunctionalConfig, FunctionalEngine};

/// The batch of one tick: its pass prologue and its sequences' tables.
type Batch = Arc<(Pass, Vec<BlockTable>)>;

/// Scheduler-to-worker commands.
enum Cmd {
    /// Reply with this worker's slice of a block.
    Read(BlockId),
    /// Store this worker's slice of a block's full-width bytes.
    Write(BlockId, Arc<Vec<f32>>),
    /// Reply with this worker's partial of a stage of the batch.
    Partial(Stage, Arc<Matrix>, Batch),
    Shutdown,
}

/// A [`TpModel`]'s shards on worker threads, one each. Dropping the
/// fleet closes its command channels, and each worker then exits.
pub struct ShardFleet {
    replicated: Arc<ReplicatedWeights>,
    cmd_txs: Vec<Sender<Cmd>>,
    res_rx: Receiver<(usize, Matrix)>,
    /// `None` once joined ([`ThreadedTpEngine::kill_shard`]).
    handles: Vec<Option<JoinHandle<()>>>,
    /// The first failure detected. A fleet with a dead shard can never
    /// complete an all-reduce, and replies from the surviving shards may
    /// still sit in `res_rx`, so a failed fleet does nothing more.
    failed: Option<WorkerError>,
    /// The layer loop's buffers, reused from pass to pass.
    stream: Stream,
}

impl ShardFleet {
    /// Shards `model` across `num_shards` worker threads, each storing its
    /// KV-head slice of every block of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics under the same divisibility conditions as
    /// [`TpModel::new`].
    #[must_use]
    pub fn new(model: &TinyModel, num_shards: usize, block_size: usize) -> Self {
        let (replicated, shards) = TpModel::new(model, num_shards, block_size).into_parts();
        let (res_tx, res_rx) = channel();
        let mut cmd_txs = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for (idx, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx) = channel();
            let res_tx = res_tx.clone();
            cmd_txs.push(tx);
            #[expect(
                clippy::disallowed_methods,
                reason = "the tensor-parallel worker fleet: one long-lived thread per shard"
            )]
            let handle = std::thread::spawn(move || worker_loop(idx, &mut shard, &rx, &res_tx));
            handles.push(Some(handle));
        }
        ShardFleet {
            replicated,
            cmd_txs,
            res_rx,
            handles,
            failed: None,
            stream: Stream::default(),
        }
    }

    /// Sends `make()` to every shard, detecting a dead shard at the send
    /// side. Fails at once if the fleet already has.
    fn broadcast(&mut self, mut make: impl FnMut() -> Cmd) -> Result<(), WorkerError> {
        if let Some(err) = self.failed {
            return Err(err);
        }
        let dead = self.cmd_txs.iter().position(|tx| tx.send(make()).is_err());
        let err = dead.map(|i| WorkerError::ShardDisconnected { shard: Some(i) });
        err.map_or(Ok(()), |err| Err(*self.failed.insert(err)))
    }

    /// Sends `make()` to every shard and collects every reply — its slice
    /// of a block, or its partial of a stage — in shard order.
    fn ask(&mut self, make: impl FnMut() -> Cmd) -> Result<Vec<Matrix>, WorkerError> {
        self.broadcast(make)?;
        let mut by_shard: Vec<Option<Matrix>> = self.cmd_txs.iter().map(|_| None).collect();
        for _ in 0..by_shard.len() {
            let Ok((idx, reply)) = self.res_rx.recv() else {
                let err = WorkerError::ShardDisconnected { shard: None };
                return Err(*self.failed.insert(err));
            };
            by_shard[idx] = Some(reply);
        }
        Ok(by_shard.into_iter().flatten().collect())
    }
}

impl PagedModel for ShardFleet {
    fn config(&self) -> &ModelConfig {
        self.replicated.config()
    }

    fn pool(&self, block_size: usize, num_blocks: usize) -> PagedKvCache {
        PagedKvCache::numbering(block_size, num_blocks)
    }

    fn read_block(&mut self, _: &PagedKvCache, block: BlockId, out: &mut Vec<f32>) {
        let slices = self.ask(|| Cmd::Read(block));
        *out = slices.map_or_else(|_| Vec::new(), gather_block);
    }

    fn write_block(&mut self, _: &mut PagedKvCache, block: BlockId, kv: &[f32]) {
        let kv = Arc::new(kv.to_vec());
        // A failure is recorded in the fleet; the next call reports it.
        let _ = self.broadcast(|| Cmd::Write(block, Arc::clone(&kv)));
    }

    fn run(&mut self, pool: &mut PagedKvCache, batch: &mut [SeqInput<'_>]) -> Option<Matrix> {
        let segments = batch.iter().flat_map(|seq| &seq.segments);
        let mut stream = std::mem::take(&mut self.stream);
        self.replicated.embed(segments, &mut stream);
        let pass = Pass::new(batch, pool).ok()?;
        let tables = batch.iter().map(|seq| seq.table.clone()).collect();
        let batch: Batch = Arc::new((pass, tables));
        let replicated = Arc::clone(&self.replicated);
        let logits = replicated.forward(&mut stream, &batch.0.last_rows, |stage, input, parts| {
            let input = Arc::new(input.clone());
            let partials =
                self.ask(|| Cmd::Partial(stage, Arc::clone(&input), Arc::clone(&batch)))?;
            for part in &partials {
                parts.push(part);
            }
            Ok::<_, WorkerError>(())
        });
        self.stream = stream;
        logits.ok()
    }

    fn alive(&self) -> bool {
        self.failed.is_none()
    }
}

/// The worker loop: executes scheduler commands against its shard.
fn worker_loop(
    idx: usize,
    shard: &mut ShardRunner,
    rx: &Receiver<Cmd>,
    res: &Sender<(usize, Matrix)>,
) {
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Read(block) => shard.read_block(block),
            Cmd::Write(block, kv) => {
                shard.write_block(block, &kv);
                continue;
            }
            Cmd::Partial(stage, input, batch) => {
                let tables: Vec<&BlockTable> = batch.1.iter().collect();
                shard.partial(stage, &input, &batch.0, &tables).clone()
            }
            Cmd::Shutdown => break,
        };
        if res.send((idx, reply)).is_err() {
            break; // Scheduler gone; exit quietly.
        }
    }
}

/// A tensor-parallel serving engine over real threads: the functional
/// engine's one scheduler and cache manager, whose every tick a
/// [`ShardFleet`] carries out.
pub struct ThreadedTpEngine {
    engine: FunctionalEngine<ShardFleet>,
}

impl ThreadedTpEngine {
    /// Shards `model` across `num_shards` worker threads, under `cfg`'s
    /// memory system.
    ///
    /// # Panics
    ///
    /// Panics under the same divisibility conditions as
    /// [`TpModel::new`], and if `cfg` has a zero block size or pool.
    #[must_use]
    pub fn new(model: &TinyModel, num_shards: usize, cfg: FunctionalConfig) -> Self {
        let fleet = ShardFleet::new(model, num_shards, cfg.block_size);
        ThreadedTpEngine {
            engine: FunctionalEngine::with_engine(fleet, &cfg, |e| e),
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.engine.exec.model.cmd_txs.len()
    }

    /// True if a shard failure has been detected; every subsequent call
    /// returns [`WorkerError::ShardDisconnected`] immediately.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.engine.exec.model.failed.is_some()
    }

    /// Test/chaos hook: shuts down one worker shard as if its process
    /// crashed. The fleet's next command detects the dead shard via
    /// channel disconnect and fails with a typed error instead of
    /// hanging.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn kill_shard(&mut self, shard: usize) {
        let fleet = &mut self.engine.exec.model;
        // A send error here means the shard is already gone — the goal
        // state, so it is not an error.
        let _ = fleet.cmd_txs[shard].send(Cmd::Shutdown);
        // Join so the crash is fully materialized (the worker's command
        // receiver is dropped) before the next command.
        if let Some(dead) = fleet.handles[shard].take() {
            let _ = dead.join();
        }
    }

    /// The cache's activity: see [`FunctionalEngine::cache_activity`].
    #[must_use]
    pub fn cache_activity(&self) -> (u64, u64, u64, u64) {
        self.engine.cache_activity()
    }

    /// Serves one conversation turn with greedy decoding, like
    /// [`FunctionalEngine::serve_turn`] but across the worker fleet.
    ///
    /// # Errors
    ///
    /// Returns [`WorkerError::ShardDisconnected`] when a worker thread
    /// died: at once, and on every later call.
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
        if let Some(err) = self.engine.exec.model.failed {
            return Err(err);
        }
        let out = self.engine.serve_turn(SessionId(conv), prompt, max_new);
        self.engine.exec.model.failed.map_or(Ok(out), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::greedy_dense;
    use pensieve_kernels::model::SegmentInput;

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
        let mut engine = ThreadedTpEngine::new(&model, 2, FunctionalConfig::default());
        assert_eq!(engine.num_shards(), 2);
        let mut full: Vec<u32> = Vec::new();
        for turn in 0..3u32 {
            let p = prompt(turn, 6, cfg.vocab_size as u32);
            let got = engine.serve_turn(1, &p, 4).unwrap();
            full.extend_from_slice(&p);
            assert_eq!(got, greedy_dense(&model, &full, 4), "turn {turn}");
            full.extend_from_slice(&got);
        }
    }

    /// Four OPT-family workers, interleaved conversations.
    #[test]
    fn four_workers_interleaved_conversations() {
        let cfg = ModelConfig::tiny_opt();
        let model = TinyModel::new_random(&cfg, 92);
        let mut engine = ThreadedTpEngine::new(&model, 4, FunctionalConfig::default());
        let vocab = cfg.vocab_size as u32;
        let mut transcripts = [Vec::new(), Vec::new()];
        for round in 0..2u32 {
            for (conv, t) in (1..=2u64).zip(&mut transcripts) {
                let p = prompt(round * 2 + conv as u32, 5, vocab);
                let got = engine.serve_turn(conv, &p, 3).unwrap();
                t.extend_from_slice(&p);
                assert_eq!(got, greedy_dense(&model, t, 3), "conv {conv} round {round}");
                t.extend_from_slice(&got);
            }
        }
    }

    /// The threaded fleet is bit-identical to the single-threaded TP
    /// orchestrator (fixed-order all-reduce).
    #[test]
    fn threaded_matches_single_threaded_tp() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 93);
        let p = prompt(9, 7, cfg.vocab_size as u32);
        fn run(m: &mut impl PagedModel, tokens: Vec<u32>) -> Matrix {
            let (mut pool, mut table) = (m.pool(4, 64), BlockTable::new(4));
            let segments = vec![SegmentInput {
                tokens,
                start_pos: 0,
            }];
            let seq = SeqInput {
                segments,
                table: &mut table,
            };
            m.run(&mut pool, &mut [seq]).unwrap()
        }
        let a = run(&mut ShardFleet::new(&model, 2, 4), p.clone());
        let b = run(&mut TpModel::new(&model, 2, 4), p);
        assert_eq!(a, b, "fixed-order all-reduce must be bit-identical");
    }

    /// A dead worker shard surfaces as a typed error, never a hang, and
    /// poisons the fleet fail-stop.
    #[test]
    fn dead_shard_yields_typed_error_not_hang() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 94);
        let mut engine = ThreadedTpEngine::new(&model, 2, FunctionalConfig::default());
        // A healthy turn first.
        let p = prompt(3, 5, cfg.vocab_size as u32);
        engine.serve_turn(1, &p, 2).unwrap();
        assert!(!engine.is_poisoned());
        // Crash shard 1, then try again.
        engine.kill_shard(1);
        let err = engine.serve_turn(1, &p, 2).unwrap_err();
        assert_eq!(err, WorkerError::ShardDisconnected { shard: Some(1) });
        assert!(engine.is_poisoned());
        // Every later call fails fast with the same typed error.
        assert_eq!(engine.serve_turn(2, &p, 2).unwrap_err(), err);
    }
}
