//! Paged (non-contiguous) KV-cache storage.
//!
//! KV-tokens live in fixed-size *blocks* drawn from a physical pool, as in
//! vLLM's PagedAttention; a sequence's logically-contiguous context is an
//! arbitrary list of physical blocks described by its [`BlockTable`]
//! (paper Figure 6). Pensieve relies on this indirection to mix
//! long-resident cached tokens with freshly swapped-in ones without any
//! memory copies.
//!
//! Block layout: each block stores `block_size` token slots; each slot is
//! `[num_kv_heads, head_dim]` contiguous floats, so both whole-token rows
//! and per-head rows are contiguous slices.

use std::fmt;

use crate::tensor::Matrix;

/// Physical block identifier within a [`PagedKvCache`] pool.
pub type BlockId = usize;

/// Geometry of KV storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLayout {
    /// Number of key/value heads.
    pub num_kv_heads: usize,
    /// Dimension of each head.
    pub head_dim: usize,
    /// Token slots per block (vLLM uses 16; we default to the same).
    pub block_size: usize,
}

impl KvLayout {
    /// Floats occupied by one token's K (or V) row.
    #[must_use]
    pub fn token_floats(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }

    /// Floats occupied by one block of K (or V).
    #[must_use]
    pub fn block_floats(&self) -> usize {
        self.block_size * self.token_floats()
    }
}

/// Error returned when the physical pool has no free blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBlocks;

impl fmt::Display for OutOfBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "paged KV pool has no free blocks")
    }
}

impl std::error::Error for OutOfBlocks {}

/// A multi-layer pool of physical KV blocks.
///
/// A block id allocated once is valid in every layer (all layers share the
/// allocation pattern, mirroring vLLM where the block table is common to
/// all layers while each layer has its own K/V tensors).
pub struct PagedKvCache {
    layout: KvLayout,
    num_layers: usize,
    num_blocks: usize,
    /// Blocks handed out at least once, in ascending id order. The slabs
    /// hold exactly these, so a pool's memory is the most blocks it has
    /// held at once, not its capacity.
    touched: usize,
    /// Per layer: K then V, each `[touched * block_floats]`.
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    /// Released blocks, handed out again (last released first) before
    /// untouched ones.
    free: Vec<BlockId>,
}

impl PagedKvCache {
    /// Creates a pool of `num_blocks` blocks for `num_layers` layers.
    #[must_use]
    pub fn new(layout: KvLayout, num_layers: usize, num_blocks: usize) -> Self {
        PagedKvCache {
            layout,
            num_layers,
            num_blocks,
            touched: 0,
            k: vec![Vec::new(); num_layers],
            v: vec![Vec::new(); num_layers],
            free: Vec::new(),
        }
    }

    /// A pool of `num_blocks` blocks with no layers: it stores nothing
    /// and only numbers blocks, for tensor-parallel shards that each
    /// store their slice of every block under the id ([`Self::cover`]).
    #[must_use]
    pub fn numbering(block_size: usize, num_blocks: usize) -> Self {
        let layout = KvLayout {
            num_kv_heads: 0,
            head_dim: 0,
            block_size,
        };
        PagedKvCache::new(layout, 0, num_blocks)
    }

    /// The storage geometry.
    #[must_use]
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// Total number of physical blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of currently free blocks.
    #[must_use]
    pub fn num_free(&self) -> usize {
        self.free.len() + self.num_blocks - self.touched
    }

    /// Allocates one block: the last one released, else the lowest
    /// untouched one (zeroed).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if the pool is exhausted.
    pub fn allocate(&mut self) -> Result<BlockId, OutOfBlocks> {
        if self.free.is_empty() && self.touched < self.num_blocks {
            for slab in self.k.iter_mut().chain(&mut self.v) {
                slab.resize(slab.len() + self.layout.block_floats(), 0.0);
            }
            self.free.push(self.touched);
            self.touched += 1;
        }
        self.free.pop().ok_or(OutOfBlocks)
    }

    /// Gives every block up to `block` storage, zeroed, as if handed out:
    /// for a pool that stores blocks another pool numbers
    /// ([`Self::numbering`]).
    pub fn cover(&mut self, block: BlockId) {
        if block >= self.touched {
            self.touched = block + 1;
            let floats = self.touched * self.layout.block_floats();
            for slab in self.k.iter_mut().chain(&mut self.v) {
                slab.resize(floats, 0.0);
            }
        }
    }

    /// Returns a block to the pool.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the id is out of range or already free.
    pub fn release(&mut self, id: BlockId) {
        debug_assert!(id < self.touched);
        debug_assert!(!self.free.contains(&id), "double free of block {id}");
        self.free.push(id);
    }

    /// Writes one token's K and V rows (`[num_kv_heads * head_dim]` each)
    /// into `slot` of `block` at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or row lengths mismatch.
    pub fn write_token(&mut self, layer: usize, block: BlockId, slot: usize, k: &[f32], v: &[f32]) {
        let tf = self.layout.token_floats();
        assert_eq!(k.len(), tf);
        assert_eq!(v.len(), tf);
        assert!(slot < self.layout.block_size);
        let off = block * self.layout.block_floats() + slot * tf;
        self.k[layer][off..off + tf].copy_from_slice(k);
        self.v[layer][off..off + tf].copy_from_slice(v);
    }

    /// Copies `block` out of every layer — each layer's K slab, then its
    /// V slab — for a swap to host memory; [`PagedKvCache::write_block`]
    /// puts it back.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn read_block(&self, block: BlockId) -> Vec<f32> {
        let mut out = Vec::new();
        self.read_block_into(block, &mut out);
        out
    }

    /// [`PagedKvCache::read_block`] into `out`, whose contents it
    /// replaces and whose buffer it reuses.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn read_block_into(&self, block: BlockId, out: &mut Vec<f32>) {
        let bf = self.layout.block_floats();
        let slab = block * bf..(block + 1) * bf;
        let slabs = self.k.iter().zip(&self.v).flat_map(|(k, v)| [k, v]);
        out.clear();
        for s in slabs {
            out.extend_from_slice(&s[slab.clone()]);
        }
    }

    /// Writes back into `block` what [`PagedKvCache::read_block`] copied
    /// out.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range or `data` is not one block of
    /// every layer.
    pub fn write_block(&mut self, block: BlockId, data: &[f32]) {
        let bf = self.layout.block_floats();
        assert_eq!(data.len(), 2 * bf * self.num_layers);
        let slabs = self.k.iter_mut().zip(&mut self.v).flat_map(|(k, v)| [k, v]);
        for (slab, src) in slabs.zip(data.chunks_exact(bf)) {
            slab[block * bf..(block + 1) * bf].copy_from_slice(src);
        }
    }

    /// Read-only view of one layer's storage for the attention kernels.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer(&self, layer: usize) -> KvLayerView<'_> {
        KvLayerView {
            layout: self.layout,
            k: &self.k[layer],
            v: &self.v[layer],
        }
    }
}

impl fmt::Debug for PagedKvCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedKvCache")
            .field("layout", &self.layout)
            .field("num_layers", &self.num_layers)
            .field("num_blocks", &self.num_blocks)
            .field("free", &self.free.len())
            .finish()
    }
}

/// Read-only view of one layer's paged K/V storage.
#[derive(Debug, Clone, Copy)]
pub struct KvLayerView<'a> {
    layout: KvLayout,
    k: &'a [f32],
    v: &'a [f32],
}

impl<'a> KvLayerView<'a> {
    /// The storage geometry.
    #[must_use]
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// K row of one head for the token at (`block`, `slot`).
    #[must_use]
    pub fn k_head(&self, block: BlockId, slot: usize, kv_head: usize) -> &'a [f32] {
        let d = self.layout.head_dim;
        let off =
            block * self.layout.block_floats() + slot * self.layout.token_floats() + kv_head * d;
        &self.k[off..off + d]
    }

    /// V row of one head for the token at (`block`, `slot`).
    #[must_use]
    pub fn v_head(&self, block: BlockId, slot: usize, kv_head: usize) -> &'a [f32] {
        let d = self.layout.head_dim;
        let off =
            block * self.layout.block_floats() + slot * self.layout.token_floats() + kv_head * d;
        &self.v[off..off + d]
    }

    /// One block's whole K slab (`[block_size, num_kv_heads * head_dim]`,
    /// row-major by slot).
    ///
    /// The blocked attention kernels read a block through this single
    /// contiguous slice — one bounds check per block instead of one per
    /// (token, head) — and index heads/slots arithmetically inside it.
    #[must_use]
    pub fn k_block(&self, block: BlockId) -> &'a [f32] {
        let bf = self.layout.block_floats();
        &self.k[block * bf..(block + 1) * bf]
    }

    /// One block's whole V slab (see [`Self::k_block`]).
    #[must_use]
    pub fn v_block(&self, block: BlockId) -> &'a [f32] {
        let bf = self.layout.block_floats();
        &self.v[block * bf..(block + 1) * bf]
    }

    /// Whole-token K row (`[num_kv_heads * head_dim]`).
    #[must_use]
    pub fn k_token(&self, block: BlockId, slot: usize) -> &'a [f32] {
        let tf = self.layout.token_floats();
        let off = block * self.layout.block_floats() + slot * tf;
        &self.k[off..off + tf]
    }

    /// Whole-token V row (`[num_kv_heads * head_dim]`).
    #[must_use]
    pub fn v_token(&self, block: BlockId, slot: usize) -> &'a [f32] {
        let tf = self.layout.token_floats();
        let off = block * self.layout.block_floats() + slot * tf;
        &self.v[off..off + tf]
    }
}

/// Logical-to-physical mapping for one sequence's context.
///
/// The table may contain *holes*: logical blocks whose physical backing has
/// been freed (swapped out to the CPU tier or dropped, paper Figure 5).
/// Holes must be refilled with [`BlockTable::refill`] (swap-in or
/// recomputation) before the covered positions are read by a kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockTable {
    blocks: Vec<Option<BlockId>>,
    len: usize,
    block_size: usize,
}

impl BlockTable {
    /// Creates an empty table for blocks of `block_size` tokens.
    #[must_use]
    pub fn new(block_size: usize) -> Self {
        BlockTable {
            blocks: Vec::new(),
            len: 0,
            block_size,
        }
    }

    /// Number of tokens stored (including tokens in holes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no token is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical block backing logical block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the block is a hole — kernels must
    /// only run once every visible block is resident.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented contract: kernels only run once every visible block is resident"
    )]
    pub fn block_at(&self, i: usize) -> BlockId {
        self.blocks[i].unwrap_or_else(|| panic!("logical block {i} is a hole"))
    }

    /// Physical block backing logical block `i`, or `None` for a hole.
    #[must_use]
    pub fn get_block(&self, i: usize) -> Option<BlockId> {
        self.blocks.get(i).copied().flatten()
    }

    /// True if every logical block covering `0..tokens` is resident.
    #[must_use]
    pub fn is_resident(&self, tokens: usize) -> bool {
        let nb = tokens.div_ceil(self.block_size);
        nb <= self.blocks.len() && self.blocks[..nb].iter().all(Option::is_some)
    }

    /// Physical `(block, slot)` of logical token `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len` or the covering block is a hole.
    #[must_use]
    pub fn position(&self, idx: usize) -> (BlockId, usize) {
        assert!(
            idx < self.len,
            "token index {idx} out of range {}",
            self.len
        );
        (self.block_at(idx / self.block_size), idx % self.block_size)
    }

    /// Appends one token, allocating a new block from `pool` when the last
    /// block is full.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] (leaving the table unchanged) if a new block
    /// was needed but the pool is exhausted.
    pub fn append_token(
        &mut self,
        pool: &mut PagedKvCache,
    ) -> Result<(BlockId, usize), OutOfBlocks> {
        debug_assert_eq!(self.block_size, pool.layout().block_size);
        if self.len == self.blocks.len() * self.block_size {
            let b = pool.allocate()?;
            self.blocks.push(Some(b));
        }
        let bi = self.len / self.block_size;
        #[expect(
            clippy::expect_used,
            reason = "the branch above just ensured the tail block; a hole there is corruption"
        )]
        let block = self.blocks[bi].expect("appending into a hole");
        let pos = (block, self.len % self.block_size);
        self.len += 1;
        Ok(pos)
    }

    /// Frees the physical backing of logical blocks `range`, leaving holes.
    ///
    /// Already-freed blocks in the range, and indices past the table's
    /// last block, are skipped. Returns the freed physical block ids (e.g.
    /// so a caller can first copy them to a CPU tier).
    pub fn free_blocks(
        &mut self,
        pool: &mut PagedKvCache,
        range: std::ops::Range<usize>,
    ) -> Vec<BlockId> {
        let mut freed = Vec::new();
        for i in range {
            if let Some(b) = self.blocks.get_mut(i).and_then(Option::take) {
                pool.release(b);
                freed.push(b);
            }
        }
        freed
    }

    /// Allocates fresh physical blocks for every hole in `range`, returning
    /// `(logical_index, physical_block)` pairs for the caller to fill
    /// (swap-in copy or recomputation). A range past the table's last
    /// block reserves blocks ahead of its tokens: later appends write
    /// into them instead of allocating.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if the pool runs out; blocks allocated
    /// before the failure remain installed.
    pub fn refill(
        &mut self,
        pool: &mut PagedKvCache,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<(usize, BlockId)>, OutOfBlocks> {
        self.blocks.resize(self.blocks.len().max(range.end), None);
        let mut filled = Vec::new();
        for i in range {
            if self.blocks[i].is_none() {
                let b = pool.allocate()?;
                self.blocks[i] = Some(b);
                filled.push((i, b));
            }
        }
        Ok(filled)
    }
}

/// Gathers a sequence's paged K and V for one layer into contiguous
/// matrices of shape `[context_len, num_kv_heads * head_dim]`.
///
/// This is the "CopyOut" step of the Figure-12 straw-man; it is also used
/// by tests to compare paged contents against ground truth.
#[must_use]
pub fn gather_contiguous(
    layer: &KvLayerView<'_>,
    table: &BlockTable,
    context_len: usize,
) -> (Matrix, Matrix) {
    let tf = layer.layout().token_floats();
    let mut k = Matrix::zeros(context_len, tf);
    let mut v = Matrix::zeros(context_len, tf);
    for i in 0..context_len {
        let (b, s) = table.position(i);
        k.row_mut(i).copy_from_slice(layer.k_token(b, s));
        v.row_mut(i).copy_from_slice(layer.v_token(b, s));
    }
    (k, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> KvLayout {
        KvLayout {
            num_kv_heads: 2,
            head_dim: 4,
            block_size: 4,
        }
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut pool = PagedKvCache::new(layout(), 1, 3);
        assert_eq!(pool.num_free(), 3);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        let c = pool.allocate().unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert!(pool.allocate().is_err());
        pool.release(b);
        assert_eq!(pool.allocate().unwrap(), 1);
    }

    #[test]
    fn write_then_read_token() {
        let mut pool = PagedKvCache::new(layout(), 2, 2);
        let k: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v: Vec<f32> = (0..8).map(|i| 10.0 + i as f32).collect();
        let b = pool.allocate().unwrap();
        pool.write_token(1, b, 3, &k, &v);
        let view = pool.layer(1);
        assert_eq!(view.k_token(b, 3), &k[..]);
        assert_eq!(view.v_token(b, 3), &v[..]);
        assert_eq!(view.k_head(b, 3, 1), &k[4..8]);
        assert_eq!(view.v_head(b, 3, 0), &v[0..4]);
        // Other layer untouched.
        assert!(pool.layer(0).k_token(b, 3).iter().all(|&x| x == 0.0));
    }

    /// A block read out of one slot and written into another carries
    /// every layer's K and V over, and nothing else.
    #[test]
    fn read_block_then_write_block_moves_every_layer() {
        let mut pool = PagedKvCache::new(layout(), 2, 3);
        let (a, b) = (pool.allocate().unwrap(), pool.allocate().unwrap());
        for (l, s) in [(0, 0), (1, 2)] {
            let k: Vec<f32> = (0..8).map(|i| (l * 100 + s * 10 + i) as f32).collect();
            pool.write_token(l, a, s, &k, &k.iter().map(|x| -x).collect::<Vec<_>>());
        }
        let bytes = pool.read_block(a);
        assert_eq!(bytes.len(), 2 * 2 * layout().block_floats());
        pool.write_block(b, &bytes);
        for l in 0..2 {
            let view = pool.layer(l);
            assert_eq!(view.k_block(b), view.k_block(a), "layer {l} K");
            assert_eq!(view.v_block(b), view.v_block(a), "layer {l} V");
        }
        let fresh = pool.allocate().unwrap();
        assert_eq!(pool.read_block(fresh), vec![0.0; bytes.len()], "untouched");
    }

    #[test]
    fn block_table_grows_across_blocks() {
        let mut pool = PagedKvCache::new(layout(), 1, 4);
        let mut table = BlockTable::new(4);
        for i in 0..9 {
            let (b, s) = table.append_token(&mut pool).unwrap();
            assert_eq!((b, s), (i / 4, i % 4));
        }
        assert_eq!(table.len(), 9);
        assert_eq!(pool.num_free(), 1, "three of the four blocks in use");
        assert_eq!(table.position(6), (1, 2));
    }

    #[test]
    fn append_fails_cleanly_when_pool_exhausted() {
        let mut pool = PagedKvCache::new(layout(), 1, 1);
        let mut table = BlockTable::new(4);
        for _ in 0..4 {
            table.append_token(&mut pool).unwrap();
        }
        assert_eq!(table.append_token(&mut pool), Err(OutOfBlocks));
        assert_eq!(table.len(), 4, "failed append must not change length");
    }

    #[test]
    fn gather_reconstructs_logical_order() {
        let mut pool = PagedKvCache::new(layout(), 1, 4);
        let mut table = BlockTable::new(4);
        // Scramble physical order: pre-allocate and release to interleave.
        let x = pool.allocate().unwrap();
        for i in 0..6u32 {
            let (b, s) = table.append_token(&mut pool).unwrap();
            let k = vec![i as f32; 8];
            let v = vec![100.0 + i as f32; 8];
            pool.write_token(0, b, s, &k, &v);
        }
        pool.release(x);
        let (k, v) = gather_contiguous(&pool.layer(0), &table, 6);
        for i in 0..6 {
            assert_eq!(k.row(i)[0], i as f32);
            assert_eq!(v.row(i)[0], 100.0 + i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn position_checks_bounds() {
        let table = BlockTable::new(4);
        let _ = table.position(0);
    }

    #[test]
    fn free_and_refill_leading_blocks() {
        let mut pool = PagedKvCache::new(layout(), 1, 8);
        let mut table = BlockTable::new(4);
        for _ in 0..12 {
            table.append_token(&mut pool).unwrap();
        }
        assert!(table.is_resident(12));
        // Evict the two leading blocks (tokens 0..8).
        let freed = table.free_blocks(&mut pool, 0..2);
        assert_eq!(freed.len(), 2);
        assert!(!table.is_resident(12));
        assert!(!table.is_resident(1));
        // Trailing tokens are still resident and addressable.
        let (b, s) = table.position(10);
        assert_eq!(s, 2);
        let _ = b;
        // Refill restores residency with fresh blocks.
        let filled = table.refill(&mut pool, 0..3).unwrap();
        assert_eq!(filled.len(), 2, "only holes are refilled");
        assert!(table.is_resident(12));
        assert_eq!(table.len(), 12, "length never changed");
    }

    #[test]
    #[should_panic(expected = "is a hole")]
    fn reading_a_hole_panics() {
        let mut pool = PagedKvCache::new(layout(), 1, 4);
        let mut table = BlockTable::new(4);
        for _ in 0..4 {
            table.append_token(&mut pool).unwrap();
        }
        table.free_blocks(&mut pool, 0..1);
        let _ = table.position(0);
    }

    #[test]
    fn refill_propagates_pool_exhaustion() {
        let mut pool = PagedKvCache::new(layout(), 1, 2);
        let mut table = BlockTable::new(4);
        for _ in 0..8 {
            table.append_token(&mut pool).unwrap();
        }
        table.free_blocks(&mut pool, 0..2);
        // Drain the pool so refill cannot succeed fully.
        let hog = pool.allocate().unwrap();
        assert!(table.refill(&mut pool, 0..2).is_err());
        pool.release(hog);
        assert!(table.refill(&mut pool, 0..2).is_ok());
    }

    #[test]
    fn get_block_reports_holes_and_bounds() {
        let mut pool = PagedKvCache::new(layout(), 1, 2);
        let mut table = BlockTable::new(4);
        for _ in 0..5 {
            table.append_token(&mut pool).unwrap();
        }
        assert_eq!(table.get_block(0), Some(0));
        table.free_blocks(&mut pool, 0..1);
        assert_eq!(table.get_block(0), None);
        assert_eq!(table.get_block(9), None);
    }
}
